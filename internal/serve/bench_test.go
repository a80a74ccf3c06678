package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bwpart/internal/exper"
)

// benchServer starts a serving stack (Server + HTTP front end) and returns
// the server, its base URL and a stop function (also run at cleanup).
// cacheBytes bounds the result cache (0: unbounded); 1 B evicts every cell as
// soon as it is resolved, so every request misses it — the production miss
// path the warm arms are compared against (benchjson derives
// serve_warm_speedup from the pair). A non-empty checkpointDir makes it the
// restart-safe configuration: checkpoint store plus job journal.
func benchServer(b *testing.B, cacheBytes int64, checkpointDir string) (*Server, string, func()) {
	b.Helper()
	cfg := testConfig()
	cfg.CacheBytes = cacheBytes
	if checkpointDir != "" {
		store, err := exper.NewCheckpointStore(checkpointDir)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Checkpoint = store
	}
	s, err := New(Options{Exper: cfg, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	stop := func() { // safe to call twice: Close and Drain are idempotent
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Errorf("drain: %v", err)
		}
	}
	b.Cleanup(stop)
	return s, ts.URL, stop
}

// benchRequest posts one mix cell and fully consumes the response.
func benchRequest(b *testing.B, client *http.Client, url, mix, scheme string) {
	b.Helper()
	body, err := json.Marshal(MixRequest{Mix: mix, Scheme: scheme})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/mix", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServe measures the serving stack end to end over HTTP. cold is
// a request the resident cache cannot answer (a server whose result cache
// holds no cell: settle and measurement on a fork of the mix's warm base per
// call);
// warm is the same request answered from the cache; warm_disk is warm on a
// server restarted over a populated checkpoint directory (each cell comes off
// disk once, then from memory, and no request appends to the journal);
// concurrent is warm sustained throughput from several clients at once;
// handler_hit is one resident hit through the handler alone, in process.
// benchjson derives serve_warm_speedup = cold/warm, the per-arm request rates,
// and serve_hit_allocs_per_op from handler_hit, which bench-check fails on
// any growth.
func BenchmarkServe(b *testing.B) {
	cells := []struct{ mix, scheme string }{
		{"hetero-1", "equal"},
		{"hetero-1", "square-root"},
		{"homo-1", "equal"},
		{"homo-1", "square-root"},
	}

	b.Run("cold", func(b *testing.B) {
		_, url, _ := benchServer(b, 1, "")
		client := &http.Client{Timeout: 120 * time.Second}
		// One unmeasured request per mix caches its standalone profiles and
		// warm base inside the runner, so every timed request pays exactly
		// the per-cell work of a miss (fork + settle + measure), what the
		// warm arm avoids.
		benchRequest(b, client, url, "hetero-1", exper.NoPartitioning)
		benchRequest(b, client, url, "homo-1", exper.NoPartitioning)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cells[i%len(cells)]
			benchRequest(b, client, url, c.mix, c.scheme)
		}
	})

	// warmHits requests every cell once untimed (making it resident in
	// memory), then times b.N serial hits.
	warmHits := func(b *testing.B, client *http.Client, url string) {
		for _, c := range cells {
			benchRequest(b, client, url, c.mix, c.scheme)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cells[i%len(cells)]
			benchRequest(b, client, url, c.mix, c.scheme)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}

	b.Run("warm", func(b *testing.B) {
		_, url, _ := benchServer(b, 0, "")
		warmHits(b, &http.Client{Timeout: 120 * time.Second}, url)
	})

	b.Run("warm_disk", func(b *testing.B) {
		dir := b.TempDir()
		client := &http.Client{Timeout: 120 * time.Second}
		_, url, stop := benchServer(b, 0, dir)
		for _, c := range cells {
			benchRequest(b, client, url, c.mix, c.scheme)
		}
		stop()
		_, url, _ = benchServer(b, 0, dir)
		warmHits(b, client, url)
	})

	b.Run("handler_hit", func(b *testing.B) {
		s, _, _ := benchServer(b, 0, "")
		hit := hitCall(s.Handler(), cells[0].mix, cells[0].scheme)
		// The first call is the miss that makes the cell resident; the rest
		// settle lazily built state, so the one timed call at -benchtime 1x
		// counts the hit path's allocations alone.
		for i := 0; i < 10; i++ {
			hit()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := hit(); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	})

	b.Run("concurrent", func(b *testing.B) {
		_, url, _ := benchServer(b, 0, "")
		for _, c := range cells {
			benchRequest(b, &http.Client{Timeout: 120 * time.Second}, url, c.mix, c.scheme)
		}
		var n int
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := &http.Client{Timeout: 120 * time.Second}
			i := 0
			for pb.Next() {
				c := cells[i%len(cells)]
				benchRequest(b, client, url, c.mix, c.scheme)
				i++
			}
		})
		n = b.N
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "req/s")
	})
}

// hitCall returns one in-process POST /v1/mix of (mix, scheme) through h. It
// reuses the request, its body reader and a response writer that discards the
// body, so every allocation of a call is the handler's own. A call returns the
// response status.
func hitCall(h http.Handler, mix, scheme string) func() int {
	body, err := json.Marshal(MixRequest{Mix: mix, Scheme: scheme})
	if err != nil {
		panic(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/mix", rd)
	w := &discardWriter{header: http.Header{}}
	return func() int {
		rd.Reset(body)
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		return w.code
	}
}

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

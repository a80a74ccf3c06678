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
// its base URL and a stop function (also run at cleanup). memoize=false
// disables the result cache so every request pays a full simulation — the
// cold reference the warm arms are compared against (benchjson derives
// serve_warm_speedup from the pair). A non-empty checkpointDir makes it the
// restart-safe configuration: checkpoint store plus job journal.
func benchServer(b *testing.B, memoize bool, checkpointDir string) (url string, stop func()) {
	b.Helper()
	cfg := testConfig()
	cfg.NoMemoize = !memoize
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
	stop = func() { // safe to call twice: Close and Drain are idempotent
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Errorf("drain: %v", err)
		}
	}
	b.Cleanup(stop)
	return ts.URL, stop
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
// a request the resident cache cannot answer (full simulation per call);
// warm is the same request answered from the cache; warm_disk is warm on a
// server restarted over a populated checkpoint directory (each cell comes off
// disk once, then from memory, and no request appends to the journal);
// concurrent is warm sustained throughput from several clients at once.
// benchjson derives serve_warm_speedup = cold/warm and the per-arm request
// rates, and gates the concurrent arm's per-request latency.
func BenchmarkServe(b *testing.B) {
	cells := []struct{ mix, scheme string }{
		{"hetero-1", "equal"},
		{"hetero-1", "square-root"},
		{"homo-1", "equal"},
		{"homo-1", "square-root"},
	}

	b.Run("cold", func(b *testing.B) {
		url, _ := benchServer(b, false, "")
		client := &http.Client{Timeout: 120 * time.Second}
		// One unmeasured request caches the standalone profiles inside the
		// runner, so every timed request pays exactly the per-cell work
		// (warmup + settle + measure), matching what the warm arm avoids.
		benchRequest(b, client, url, "hetero-1", exper.NoPartitioning)
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
		url, _ := benchServer(b, true, "")
		warmHits(b, &http.Client{Timeout: 120 * time.Second}, url)
	})

	b.Run("warm_disk", func(b *testing.B) {
		dir := b.TempDir()
		client := &http.Client{Timeout: 120 * time.Second}
		url, stop := benchServer(b, true, dir)
		for _, c := range cells {
			benchRequest(b, client, url, c.mix, c.scheme)
		}
		stop()
		url, _ = benchServer(b, true, dir)
		warmHits(b, client, url)
	})

	b.Run("concurrent", func(b *testing.B) {
		url, _ := benchServer(b, true, "")
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

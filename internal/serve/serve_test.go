package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bwpart/internal/core"
	"bwpart/internal/exper"
	"bwpart/internal/faultinject"
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// testConfig shrinks the simulation windows so a cell costs milliseconds;
// the serving behaviors under test (dedup, fairness, admission, drain) are
// window-independent.
func testConfig() exper.Config {
	cfg := exper.Quick()
	cfg.Sim.WarmupInstructions = 60_000
	cfg.ProfileCycles = 150_000
	cfg.SettleCycles = 30_000
	cfg.MeasureCycles = 150_000
	return cfg
}

// faultConfig is testConfig with the fault injector in armed.
func faultConfig(in *faultinject.Injector) exper.Config {
	cfg := testConfig()
	cfg.Faults = in
	return cfg
}

// newTestServer builds a Server plus an httptest front end, tearing both
// down (with a bounded drain) at test end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Exper.ProfileCycles == 0 {
		opts.Exper = testConfig()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any, headers map[string]string) *http.Response {
	t.Helper()
	b, raw := body.([]byte) // a raw body is sent as it is
	if !raw {
		var err error
		if b, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %T: %v", v, err)
	}
	return v
}

// normalize pushes a MixRun through a JSON round trip so directly computed
// runs compare DeepEqual against wire-decoded ones (the round trip is
// lossless; the checkpoint tests pin that).
func normalize(t *testing.T, run *exper.MixRun) *exper.MixRun {
	t.Helper()
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	var out exper.MixRun
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// directRun computes a cell outside the server, on a private runner with
// the same configuration.
func directRun(t *testing.T, scheme, mixName string) *exper.MixRun {
	t.Helper()
	r, err := exper.NewRunner(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.RunMix(mix, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return normalize(t, run)
}

func stageCount(s obs.Snapshot, name string) int64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Count
		}
	}
	return 0
}

// TestServeMixMatchesDirect is the endpoint-level differential: every
// served cell must be byte-for-byte the result a direct Runner.RunMix
// computes for the same configuration.
func TestServeMixMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ mix, scheme string }{
		{"hetero-1", "equal"},
		{"hetero-1", exper.NoPartitioning},
		{"homo-1", "square-root"},
	} {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: tc.mix, Scheme: tc.scheme}, nil)
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s/%s: status %d: %s", tc.mix, tc.scheme, resp.StatusCode, body)
		}
		got := decodeBody[*exper.MixRun](t, resp)
		want := directRun(t, tc.scheme, tc.mix)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: served result diverges from direct RunMix", tc.mix, tc.scheme)
		}
	}
}

// TestServeGridMatchesDirect runs a grid asynchronously and checks the
// terminal snapshot's results cell by cell against direct runs, in the
// row-major order RunGrid promises.
func TestServeGridMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mixes := []string{"hetero-1", "homo-1"}
	schemes := []string{"equal", "square-root"}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid", GridRequest{Mixes: mixes, Schemes: schemes}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[GridAccepted](t, resp)
	if acc.CellsTotal != 4 {
		t.Fatalf("cells_total = %d, want 4", acc.CellsTotal)
	}
	snap := waitJob(t, ts, acc.ID, 60*time.Second)
	if snap.State != JobDone {
		t.Fatalf("job state %q (error %q), want done", snap.State, snap.Error)
	}
	if len(snap.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(snap.Results))
	}
	i := 0
	for _, mixName := range mixes {
		for _, scheme := range schemes {
			want := directRun(t, scheme, mixName)
			if !reflect.DeepEqual(snap.Results[i], want) {
				t.Errorf("cell %d (%s/%s): served result diverges from direct RunMix", i, mixName, scheme)
			}
			i++
		}
	}
}

// TestGridJobIsOneFanOut: a 3-mix x 2-scheme grid job runs as one engine
// fan-out, yet its results are byte-identical to per-mix RunGrid calls
// concatenated in mix order, and cells_done rises by exactly one per cell.
// Progress is observed at every job transition, not through the watch
// stream, which may coalesce updates.
func TestGridJobIsOneFanOut(t *testing.T) {
	var (
		mu    sync.Mutex
		trans []JobSnapshot
	)
	hook := func(s JobSnapshot) {
		mu.Lock()
		trans = append(trans, s)
		mu.Unlock()
	}
	testHookUpdate.Store(&hook)
	t.Cleanup(func() { testHookUpdate.Store(nil) })

	_, ts := newTestServer(t, Options{Workers: 1})
	mixNames := []string{"hetero-1", "hetero-2", "homo-1"}
	schemes := []string{"equal", "square-root"}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid", GridRequest{Mixes: mixNames, Schemes: schemes}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[GridAccepted](t, resp)
	if snap := waitJob(t, ts, acc.ID, 60*time.Second); snap.State != JobDone {
		t.Fatalf("job state %q (error %q), want done", snap.State, snap.Error)
	}

	st, err := ts.Client().Get(ts.URL + "/v1/jobs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[struct{ Results json.RawMessage }](t, st).Results
	direct, err := exper.NewRunner(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var perMix []*exper.MixRun
	for _, name := range mixNames {
		mix, err := workload.MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := direct.RunGrid(context.Background(), []workload.Mix{mix}, schemes)
		if err != nil {
			t.Fatal(err)
		}
		perMix = append(perMix, runs...)
	}
	want, err := json.Marshal(perMix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("grid job results differ from per-mix RunGrid calls:\n got %.200s\nwant %.200s", got, want)
	}

	// Every transition of this job: running at 0, one per cell, then done.
	mu.Lock()
	defer mu.Unlock()
	var done []int
	var states []JobState
	for _, s := range trans {
		if s.ID == acc.ID {
			done = append(done, s.CellsDone)
			states = append(states, s.State)
		}
	}
	wantDone := []int{0} // running
	for n := 1; n <= len(mixNames)*len(schemes); n++ {
		wantDone = append(wantDone, n)
	}
	wantDone = append(wantDone, len(wantDone)-1) // done
	if !reflect.DeepEqual(done, wantDone) {
		t.Errorf("cells_done at each transition = %v, want %v", done, wantDone)
	}
	if n := len(states); n == 0 || states[0] != JobRunning || states[n-1] != JobDone {
		t.Errorf("transition states = %v, want running ... done", states)
	}
}

func waitJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		snap := decodeBody[JobSnapshot](t, resp)
		if snap.State.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, snap.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeConcurrentClientsSingleFlight floods the server with overlapping
// requests from several clients: every response must match the direct run,
// and the shared cache must admit exactly one leader simulation per unique
// cell — everything else is a hit or a coalesced waiter.
func TestServeConcurrentClientsSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4})
	cells := []struct{ mix, scheme string }{
		{"hetero-1", "equal"},
		{"hetero-1", "square-root"},
		{"homo-1", "equal"},
		{"homo-1", "square-root"},
	}
	want := make([]*exper.MixRun, len(cells))
	for i, c := range cells {
		want[i] = directRun(t, c.scheme, c.mix)
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(cells))
	for ci := 0; ci < clients; ci++ {
		for i, c := range cells {
			wg.Add(1)
			go func(client string, i int, mix, scheme string) {
				defer wg.Done()
				resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: mix, Scheme: scheme},
					map[string]string{"X-Client-ID": client})
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					errs <- fmt.Errorf("%s %s/%s: status %d: %s", client, mix, scheme, resp.StatusCode, body)
					return
				}
				got := decodeBody[*exper.MixRun](t, resp)
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("%s %s/%s: served result diverges", client, mix, scheme)
				}
			}(fmt.Sprintf("client-%d", ci), i, c.mix, c.scheme)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := s.Obs().Snapshot()
	if snap.Cache.Misses != int64(len(cells)) {
		t.Errorf("cell-cache misses = %d, want exactly %d (one leader per unique cell)", snap.Cache.Misses, len(cells))
	}
	if got, want := snap.Cache.Hits+snap.Cache.Coalesced, int64((clients-1)*len(cells)); got != want {
		t.Errorf("hits+coalesced = %d, want %d", got, want)
	}
	// A request that found its cell finished was a hit, not a job.
	if a := snap.Admission; a.Accepted+a.Hits != int64(clients*len(cells)) {
		t.Errorf("accepted %d + hits %d, want %d", a.Accepted, a.Hits, clients*len(cells))
	}
}

// TestServeQueueFullRejects saturates a Workers=1/MaxQueue=1 server and
// expects 429 + Retry-After for the overflow, while every accepted job
// still completes.
func TestServeQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	grid := GridRequest{
		Mixes:   []string{"hetero-1", "hetero-2", "hetero-3"},
		Schemes: []string{"equal", "square-root"},
	}
	var accepted []string
	rejected := 0
	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid", grid, nil)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted = append(accepted, decodeBody[GridAccepted](t, resp).ID)
		case http.StatusTooManyRequests:
			rejected++
			ra := resp.Header.Get("Retry-After")
			if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
				t.Errorf("Retry-After = %q, want an integer >= 1", ra)
			}
			resp.Body.Close()
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if rejected == 0 {
		t.Fatal("no request was refused: admission control did not engage")
	}
	if len(accepted) == 0 {
		t.Fatal("every request was refused")
	}
	for _, id := range accepted {
		if snap := waitJob(t, ts, id, 120*time.Second); snap.State != JobDone {
			t.Errorf("accepted job %s ended %q (error %q), want done", id, snap.State, snap.Error)
		}
	}
	snap := s.Obs().Snapshot()
	if snap.Admission.Rejected != int64(rejected) {
		t.Errorf("rejected counter = %d, want %d", snap.Admission.Rejected, rejected)
	}
}

// TestServeDrainCompletesAcceptedJobs accepts jobs, drains, and verifies
// the drain guarantee: nothing accepted is lost, and admission answers 503
// while draining.
func TestServeDrainCompletesAcceptedJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	var ids []string
	for _, mix := range []string{"hetero-1", "hetero-2", "hetero-3"} {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
			GridRequest{Mixes: []string{mix}, Schemes: []string{"equal", "square-root"}}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d, want 202", resp.StatusCode)
		}
		ids = append(ids, decodeBody[GridAccepted](t, resp).ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		snap := waitJob(t, ts, id, time.Second) // already terminal post-drain
		if snap.State != JobDone {
			t.Errorf("job %s ended %q (error %q), want done", id, snap.State, snap.Error)
		}
		if snap.CellsDone != snap.CellsTotal {
			t.Errorf("job %s finished %d/%d cells", id, snap.CellsDone, snap.CellsTotal)
		}
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain admission status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServeCheckpointPersistentTier restarts the server over a populated
// checkpoint directory: the first repeated request must be served from disk
// (checkpoint hit, zero simulations), and corrupting the files degrades to
// plain misses, never errors.
func TestServeCheckpointPersistentTier(t *testing.T) {
	dir := t.TempDir()
	serveOnce := func(col *obs.Collector) *exper.MixRun {
		store, err := exper.NewCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Checkpoint = store
		cfg.Obs = col
		s, err := New(Options{Exper: cfg})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal"}, nil)
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return decodeBody[*exper.MixRun](t, resp)
	}

	col1 := obs.NewCollector()
	first := serveOnce(col1)

	// Restart: same directory, fresh process state. The repeated request
	// must come off disk without a single simulation.
	col2 := obs.NewCollector()
	second := serveOnce(col2)
	if !reflect.DeepEqual(first, second) {
		t.Error("restarted server's checkpointed result diverges")
	}
	s2 := col2.Snapshot()
	if s2.Cache.CheckpointHits < 1 {
		t.Errorf("checkpoint hits = %d, want >= 1", s2.Cache.CheckpointHits)
	}
	if n := stageCount(s2, obs.StageWarmup); n != 0 {
		t.Errorf("restarted server ran %d warmups, want 0 (disk tier should answer)", n)
	}

	// Corrupt every checkpoint file: the tier must degrade to plain misses.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("checkpoint directory is empty")
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	col3 := obs.NewCollector()
	third := serveOnce(col3)
	if !reflect.DeepEqual(first, third) {
		t.Error("re-simulated result after corruption diverges")
	}
	s3 := col3.Snapshot()
	if s3.Cache.CheckpointHits != 0 {
		t.Errorf("corrupt files produced %d checkpoint hits, want 0", s3.Cache.CheckpointHits)
	}
	if n := stageCount(s3, obs.StageWarmup); n == 0 {
		t.Error("corrupt checkpoint did not force a re-simulation")
	}
}

// TestServeWatchStreamsProgress consumes the NDJSON watch stream of a grid
// job: progress must be monotone and the stream must end with the terminal
// snapshot carrying the results.
func TestServeWatchStreamsProgress(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"hetero-1", "homo-1"}, Schemes: []string{"equal", "square-root"}}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[GridAccepted](t, resp)

	watch, err := ts.Client().Get(ts.URL + "/v1/jobs/" + acc.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	if ct := watch.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("watch content type = %q", ct)
	}
	var snaps []JobSnapshot
	sc := bufio.NewScanner(watch.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var snap JobSnapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		snaps = append(snaps, snap)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("watch stream produced no snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.State != JobDone || len(last.Results) != 4 {
		t.Fatalf("final snapshot: state %q, %d results, want done/4", last.State, len(last.Results))
	}
	prev := -1
	for i, snap := range snaps {
		if snap.CellsDone < prev {
			t.Errorf("snapshot %d: cells_done went backwards (%d -> %d)", i, prev, snap.CellsDone)
		}
		prev = snap.CellsDone
		if i < len(snaps)-1 && snap.State.Terminal() {
			t.Errorf("terminal snapshot %d is not last of %d", i, len(snaps))
		}
	}
}

// TestServeCancelQueuedJob cancels a job that has not been dispatched yet;
// it must go terminal immediately without simulating anything.
func TestServeCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	// Occupy the lone worker so the second job stays queued.
	busy := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"hetero-1", "hetero-2"}, Schemes: []string{"equal", "square-root"}}, nil)
	busyID := decodeBody[GridAccepted](t, busy).ID
	queued := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"homo-1"}, Schemes: []string{"equal"}}, nil)
	queuedID := decodeBody[GridAccepted](t, queued).ID

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queuedID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[JobSnapshot](t, resp)
	if snap.State != JobCancelled {
		t.Errorf("cancelled job state %q, want cancelled", snap.State)
	}
	if got := s.Obs().Snapshot().Admission.Cancelled; got < 1 {
		t.Errorf("cancelled counter = %d, want >= 1", got)
	}
	if snap := waitJob(t, ts, busyID, 120*time.Second); snap.State != JobDone {
		t.Errorf("running job ended %q, want done", snap.State)
	}
	if snap := waitJob(t, ts, queuedID, time.Second); snap.State != JobCancelled {
		t.Errorf("queued job resurrected to %q", snap.State)
	}
}

// TestServeBadRequests pins the 4xx surface: unknown names, share-taking
// policies and malformed parameters are refused at admission, never queued,
// while any other registered policy (a heuristic here) is served.
func TestServeBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for name, tc := range map[string]struct {
		path string
		body any
		want int
	}{
		"unknown mix":    {"/v1/mix", MixRequest{Mix: "no-such-mix", Scheme: "equal"}, http.StatusBadRequest},
		"unknown scheme": {"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "no-such-scheme"}, http.StatusBadRequest},
		"bad scale":      {"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal", Scale: -2}, http.StatusBadRequest},
		"huge scale":     {"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal", Scale: 1e300}, http.StatusBadRequest},
		"tiny scale":     {"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal", Scale: 1e-300}, http.StatusBadRequest}, // burst cycles wrap int64
		"empty grid":     {"/v1/grid", GridRequest{}, http.StatusBadRequest},
		// The share-taking policies need a share vector no request carries.
		"share policy":      {"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "start-time-fair"}, http.StatusBadRequest},
		"share policy grid": {"/v1/grid", GridRequest{Mixes: []string{"hetero-1"}, Schemes: []string{"budget"}}, http.StatusBadRequest},
		"heuristic":         {"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "stfm"}, http.StatusOK},
		// A misspelt field must not run the cell at the default scale.
		"unknown field": {"/v1/mix", map[string]any{"mix": "hetero-1", "scheme": "equal", "scale_factor": 2}, http.StatusBadRequest},
		// Bodies over the 1 MiB cap.
		"huge mix body":  {"/v1/mix", MixRequest{Mix: strings.Repeat("x", 2<<20), Scheme: "equal"}, http.StatusRequestEntityTooLarge},
		"huge grid body": {"/v1/grid", GridRequest{Mixes: []string{strings.Repeat("x", 2<<20)}, Schemes: []string{"equal"}}, http.StatusRequestEntityTooLarge},
		// One cell over the cap, in a body of a few kilobytes.
		"over-cap grid": {"/v1/grid", GridRequest{Mixes: repeat("hetero-1", maxGridCells/2+1), Schemes: []string{"equal", "equal"}}, http.StatusBadRequest},
		// Raw bodies: anything but whitespace after the value is refused,
		// so a second value is never silently dropped.
		"second mix value":  {"/v1/mix", []byte(`{"mix":"hetero-1","scheme":"equal"}{"mix":"hetero-2"}`), http.StatusBadRequest},
		"trailing garbage":  {"/v1/mix", []byte(`{"mix":"hetero-1","scheme":"equal"} garbage`), http.StatusBadRequest},
		"trailing brace":    {"/v1/mix", []byte(`{"mix":"hetero-1","scheme":"equal"}}`), http.StatusBadRequest},
		"second grid value": {"/v1/grid", []byte(`{"mixes":["hetero-1"],"schemes":["equal"]} {}`), http.StatusBadRequest},
		"trailing space":    {"/v1/mix", []byte("{\"mix\":\"hetero-1\",\"scheme\":\"stfm\"} \n\t"), http.StatusOK},
	} {
		resp := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	// Only the first stfm request may be admitted: the second is a hit.
	if got := s.Obs().Snapshot().Admission.Accepted; got != 1 {
		t.Errorf("bad requests were admitted: accepted = %d, want 1", got)
	}
}

// repeat returns n copies of name.
func repeat(name string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = name
	}
	return out
}

// TestGridCapCoversNamedGrid: the grid cap refuses only repeated names: every
// named mix under every policy a request may name is a grid under
// maxGridCells. Those policies are, as CheckPolicy documents them,
// no-partitioning, fr-fcfs, the heuristics and the core schemes; each must be
// accepted, and the share-taking and online ones refused.
func TestGridCapCoversNamedGrid(t *testing.T) {
	mixes := append(append(workload.AllMixes(), workload.QoSMixes()...), workload.MotivationMix())
	for _, m := range mixes {
		if _, err := workload.MixByName(m.Name); err != nil {
			t.Fatal(err)
		}
	}
	policies := append([]string{exper.NoPartitioning, "fr-fcfs"}, exper.HeuristicNames()...)
	refused := []string{"start-time-fair", "budget"}
	for _, s := range core.Schemes() {
		policies = append(policies, s.Name())
		refused = append(refused, "online:"+s.Name())
	}
	for _, name := range policies {
		if err := exper.CheckPolicy(name); err != nil {
			t.Errorf("CheckPolicy(%s): %v", name, err)
		}
	}
	for _, name := range refused {
		if exper.CheckPolicy(name) == nil {
			t.Errorf("CheckPolicy(%s) accepted", name)
		}
	}
	if n := len(mixes) * len(policies); n > maxGridCells {
		t.Errorf("%d named mixes × %d policies = %d cells, over the %d-cell cap", len(mixes), len(policies), n, maxGridCells)
	} else {
		t.Logf("%d named mixes × %d policies = %d cells, cap %d", len(mixes), len(policies), n, maxGridCells)
	}
}

// TestServeMetricsAndHealth scrapes /metrics after some work and checks the
// Prometheus exposition carries both the collector counters and the
// server's own gauges.
func TestServeMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mix status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(health.Body)
	health.Body.Close()
	if health.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: %d %q", health.StatusCode, body)
	}

	// The job's done channel closes just before its outcome is counted, so
	// scrape until the count has landed.
	var text []byte
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		metrics, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ = io.ReadAll(metrics.Body)
		metrics.Body.Close()
		if strings.Contains(string(text), "bwpart_serve_jobs_done_total 1") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"bwpart_jobs_total",
		"bwpart_cell_cache_misses_total",
		"bwpart_requests_accepted_total 1",
		"bwpart_serve_queue_depth 0",
		"bwpart_serve_draining 0",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The whole exposition as a sorted set of lines: which metrics exist,
	// their HELP/TYPE text, and every value the one served cell fixes. Wall
	// time and figures that move with the simulator's internals keep their
	// name only.
	volatile := regexp.MustCompile(`^(bwpart_[a-z_]*(seconds|kernel|queue_depth_m|cache_bytes)[^ ]*) .*$`)
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	for i, line := range lines {
		lines[i] = volatile.ReplaceAllString(line, "$1 *")
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_lines.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics line set changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestNewRejectsBadGeometry holds New to its promise: a simulator
// configuration no run could use fails at startup, not on the first request.
func TestNewRejectsBadGeometry(t *testing.T) {
	for name, mutate := range map[string]func(*exper.Config){
		"L2.Ways=3":      func(c *exper.Config) { c.Sim.L2.Ways = 3 },
		"L1.MSHRs=0":     func(c *exper.Config) { c.Sim.L1.MSHRs = 0 },
		"Core.ROBSize=0": func(c *exper.Config) { c.Sim.Core.ROBSize = 0 },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if s, err := New(Options{Exper: cfg}); err == nil {
			s.Drain(context.Background())
			t.Errorf("%s: New accepted a configuration every request would fail on", name)
		}
	}
}

// TestServeSmoke exercises the real serving path end to end: a TCP
// listener, Run with a cancellable context, one health check, one mix
// request, then a clean drain on cancel. `make check` runs exactly this.
func TestServeSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Exper: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln, 60*time.Second) }()

	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	mixResp := postJSON(t, client, base+"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal"}, nil)
	if mixResp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(mixResp.Body)
		t.Fatalf("mix status %d: %s", mixResp.StatusCode, body)
	}
	run := decodeBody[*exper.MixRun](t, mixResp)
	if run.Mix.Name != "hetero-1" || run.Scheme != "equal" {
		t.Fatalf("served cell is (%s, %s)", run.Mix.Name, run.Scheme)
	}
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}

// serveLoopback runs a new Server on a loopback listener until the test
// ends, and returns its address.
func serveLoopback(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Exper: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln, 60*time.Second) }()
	t.Cleanup(func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("run: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestServeDropsSlowHeaderClient: a client that sends half a request header
// and stalls is disconnected once Run's header timeout passes, and the server
// keeps serving everyone else. It runs beside TestServeDropsSlowBodyClient,
// so the two waits overlap.
func TestServeDropsSlowHeaderClient(t *testing.T) {
	t.Parallel()
	addr := serveLoopback(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: sweepd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	n, err := conn.Read(make([]byte, 512))
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("still connected %v after a partial header (timeout %v)", elapsed, readHeaderTimeout)
	}
	if err == nil {
		t.Fatalf("server answered a partial header with %d bytes", n)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Errorf("disconnected after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after dropping the slow client", resp.StatusCode)
	}
}

// TestServeDropsSlowBodyClient: a client that sends a request's headers and
// part of its body, then stalls, is answered 400 and disconnected once the
// body timeout passes, and the server keeps serving everyone else.
func TestServeDropsSlowBodyClient(t *testing.T) {
	t.Parallel()
	addr := serveLoopback(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	const head = "POST /v1/mix HTTP/1.1\r\nHost: sweepd\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"
	if _, err := io.WriteString(conn, head+`{"mix": "hetero-1",`); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readBodyTimeout + 10*time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("no answer %v after a stalled body (timeout %v): %v", elapsed, readBodyTimeout, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a stalled body answered %d, want 400", resp.StatusCode)
	}
	if elapsed < readBodyTimeout/2 {
		t.Errorf("answered after %v, before the %v body timeout", elapsed, readBodyTimeout)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Errorf("connection still open after the answer: read %d bytes", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Errorf("connection still open %v after a stalled body", time.Since(start))
	}

	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after dropping the slow client", resp.StatusCode)
	}
}

// TestServeMixBodyBytes pins the exact /v1/mix body, byte for byte, on every
// path a cell can be answered by: it must be json.Marshal of what a direct
// RunMix returns for the requested labels, plus the newline json.Encoder
// writes. A body read back off disk must also be the checkpoint file itself.
func TestServeMixBodyBytes(t *testing.T) {
	direct, err := exper.NewRunner(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantBody := func(mixName string) []byte {
		t.Helper()
		mix, err := workload.MixByName(mixName)
		if err != nil {
			t.Fatal(err)
		}
		run, err := direct.RunMix(mix, "equal")
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	body := func(ts *httptest.Server, mixName string) []byte {
		t.Helper()
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: mixName, Scheme: "equal"}, nil)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mixName, resp.StatusCode, b)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", mixName, ct)
		}
		return b
	}
	dir := t.TempDir()
	withStore := func() Options {
		store, err := exper.NewCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Checkpoint = store
		return Options{Exper: cfg}
	}
	evicting := testConfig()
	evicting.CacheBytes = 1

	for _, tc := range []struct {
		name string
		mix  string
		// serve returns the body of the request under test.
		serve func(t *testing.T) []byte
	}{
		{"cold miss", "hetero-1", func(t *testing.T) []byte {
			_, ts := newTestServer(t, Options{})
			return body(ts, "hetero-1")
		}},
		{"memory hit", "hetero-1", func(t *testing.T) []byte {
			_, ts := newTestServer(t, Options{})
			body(ts, "hetero-1")
			return body(ts, "hetero-1")
		}},
		{"disk-promoted hit", "hetero-2", func(t *testing.T) []byte {
			s, ts := newTestServer(t, withStore())
			body(ts, "hetero-2")
			ts.Close()
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			_, ts = newTestServer(t, withStore())
			got := body(ts, "hetero-2")
			files, err := filepath.Glob(filepath.Join(dir, "v*.json"))
			if err != nil || len(files) != 1 {
				t.Fatalf("checkpoint files %v (%v), want one", files, err)
			}
			file, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(file, '\n')) {
				t.Errorf("disk-promoted body is not the checkpoint file plus a newline")
			}
			return got
		}},
		{"aliased hit", "motivation", func(t *testing.T) []byte {
			_, ts := newTestServer(t, Options{})
			body(ts, "hetero-5")
			return body(ts, "motivation")
		}},
		{"evicted miss", "hetero-1", func(t *testing.T) []byte {
			// A 1 B cache evicts the cell as it resolves: the body is
			// EncodeCell's encoding of the run, not a stored one.
			_, ts := newTestServer(t, Options{Exper: evicting})
			return body(ts, "hetero-1")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := tc.serve(t), wantBody(tc.mix); !bytes.Equal(got, want) {
				t.Errorf("body differs from json.Marshal(RunMix)+\"\\n\":\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestServeHitsAreNotJobs: a request for a resident cell is answered without
// a job — it is not listed, not accepted, not done — and counts as a hit.
func TestServeHitsAreNotJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: "hetero-1", Scheme: "equal"}, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if jobs := decodeBody[map[string][]JobSnapshot](t, resp)["jobs"]; len(jobs) != 1 {
		t.Errorf("/v1/jobs lists %d jobs, want 1 (the miss)", len(jobs))
	}
	a := s.Obs().Snapshot().Admission
	if a.Accepted != 1 || a.Hits != 2 {
		t.Errorf("accepted %d, hits %d; want 1 and 2", a.Accepted, a.Hits)
	}
	for deadline := time.Now().Add(10 * time.Second); a.Done != 1 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		a = s.Obs().Snapshot().Admission // the outcome is counted just after done closes
	}
	if a.Done != 1 {
		t.Errorf("done = %d, want 1", a.Done)
	}
}

// TestServeHitBypassesFullQueue: with the queue full behind a stalled
// worker, a resident cell is still answered while a miss is refused.
func TestServeHitBypassesFullQueue(t *testing.T) {
	in := faultinject.New(11)
	s, ts := newTestServer(t, Options{Exper: faultConfig(in), Workers: 1, MaxQueue: 1})
	post := func(req any, path string) int {
		resp := postJSON(t, ts.Client(), ts.URL+path, req, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(MixRequest{Mix: "hetero-1", Scheme: "equal"}, "/v1/mix"); code != http.StatusOK {
		t.Fatalf("populating: status %d", code)
	}
	// The worker takes the first grid and stalls; the second fills the queue.
	in.Arm(faultinject.QueueStall, faultinject.Rule{Delay: 2 * time.Second, Limit: 1})
	grid := GridRequest{Mixes: []string{"homo-1"}, Schemes: []string{"equal"}}
	if code := post(grid, "/v1/grid"); code != http.StatusAccepted {
		t.Fatalf("first grid: status %d", code)
	}
	for deadline := time.Now().Add(10 * time.Second); s.QueueDepth() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never took the first grid")
		}
	}
	if code := post(grid, "/v1/grid"); code != http.StatusAccepted {
		t.Fatalf("second grid: status %d", code)
	}
	if code := post(MixRequest{Mix: "hetero-1", Scheme: "equal"}, "/v1/mix"); code != http.StatusOK {
		t.Errorf("resident hit behind a full queue: status %d, want 200", code)
	}
	if code := post(MixRequest{Mix: "hetero-2", Scheme: "equal"}, "/v1/mix"); code != http.StatusTooManyRequests {
		t.Errorf("miss behind a full queue: status %d, want 429", code)
	}
}

// TestServeTakesExperConfig: the collector, cache budget and fault injector
// set in Options.Exper are the ones the server and its runner use; only a
// zero budget becomes DefaultCacheBytes, and a negative one builds no server.
func TestServeTakesExperConfig(t *testing.T) {
	negative := testConfig()
	negative.CacheBytes = -1
	if _, err := New(Options{Exper: negative}); err == nil {
		t.Error("a negative cache budget built a server")
	}
	for _, budget := range []int64{1024, 0} {
		in := faultinject.New(1)
		in.Arm(faultinject.QueueStall, faultinject.Rule{})
		cfg := faultConfig(in)
		cfg.Obs, cfg.CacheBytes = obs.NewCollector(), budget
		s, _ := newTestServer(t, Options{Exper: cfg})
		want := budget
		if budget == 0 {
			want = DefaultCacheBytes
		}
		got := s.runner.Config()
		if got.Obs != cfg.Obs || s.Obs() != cfg.Obs {
			t.Errorf("budget %d: the server counts into a collector of its own", budget)
		}
		if got.CacheBytes != want {
			t.Errorf("budget %d: the runner's budget is %d, want %d", budget, got.CacheBytes, want)
		}
		if got.Faults != in {
			t.Errorf("budget %d: the runner has no or another fault injector", budget)
		}
		in.Fire(faultinject.QueueStall)
		if n := cfg.Obs.Snapshot().Failures.FaultsInjected; n != 1 {
			t.Errorf("budget %d: %d faults counted, want 1", budget, n)
		}
	}
}

// TestHitAllocCeiling gates the work of a resident hit, not its time: the
// handler's allocations per hit (BenchmarkServe/handler_hit's call) may not
// grow past today's count.
func TestHitAllocCeiling(t *testing.T) {
	const ceiling = 17
	s, _ := newTestServer(t, Options{})
	hit := hitCall(s.Handler(), "hetero-1", "equal")
	if code := hit(); code != http.StatusOK { // the miss that makes it resident
		t.Fatalf("status %d", code)
	}
	if got := testing.AllocsPerRun(100, func() { hit() }); got > ceiling {
		t.Errorf("%v allocations per resident hit, ceiling %d", got, ceiling)
	}
	if a := s.Obs().Snapshot().Admission; a.Accepted != 1 || a.Hits != 101 {
		t.Errorf("accepted %d, hits %d; want 1 and 101", a.Accepted, a.Hits)
	}
}

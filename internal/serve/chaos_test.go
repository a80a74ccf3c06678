package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bwpart/internal/exper"
	"bwpart/internal/faultinject"
	"bwpart/internal/workload"
)

// This file is the chaos suite (`make chaos` runs every TestChaos* under
// -race): it drives a real listener through injected fault schedules on
// every point class and asserts the daemon's survival invariants —
// accepted == done + failed + cancelled, no goroutine leaks, results
// bit-identical to direct runs once faults clear, and crash-resume from the
// job journal paying only for missing cells.

// waitGoroutines polls until the goroutine count returns to (near) the
// baseline, failing with a full stack dump on timeout.
func waitGoroutines(t *testing.T, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// drainAndClose tears a chaos server down in the order a leak check needs:
// HTTP first, then a bounded drain.
func drainAndClose(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestChaosScheduleInvariants floods a server whose every fault point class
// is armed — checkpoint read/write/rename, journal writes, cell panics and
// delays, queue stalls, job panics — and asserts the daemon never stops
// answering, the job accounting stays exact, results are correct once
// faults clear, and nothing leaks.
func TestChaosScheduleInvariants(t *testing.T) {
	baseline := runtime.NumGoroutine()
	store, err := exper.NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.SetLogf(func(string, ...any) {}) // expected degradation, keep test output clean
	in := faultinject.New(1234)
	in.Arm(faultinject.CheckpointRead, faultinject.Rule{Prob: 0.5, Limit: 2})
	in.Arm(faultinject.CheckpointWrite, faultinject.Rule{After: 1, Every: 2})
	in.Arm(faultinject.CheckpointRename, faultinject.Rule{Every: 3, Limit: 2})
	in.Arm(faultinject.JournalWrite, faultinject.Rule{After: 4, Limit: 1})
	in.Arm(faultinject.CellPanic, faultinject.Rule{Every: 4, Limit: 3})
	in.Arm(faultinject.CellDelay, faultinject.Rule{Every: 5, Delay: 3 * time.Millisecond})
	in.Arm(faultinject.QueueStall, faultinject.Rule{Every: 3, Delay: 3 * time.Millisecond})
	in.Arm(faultinject.JobPanic, faultinject.Rule{Every: 6, Limit: 2})

	cfg := faultConfig(in)
	cfg.Checkpoint = store
	s, err := New(Options{Exper: cfg, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	jn := s.journal
	jn.mu.Lock()
	jn.logf = func(string, ...any) {}
	jn.mu.Unlock()

	mixes := []string{"hetero-1", "hetero-2", "homo-1", "homo-2"}
	schemes := []string{"equal", "square-root"}
	var ids []string
	var idMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			headers := map[string]string{"X-Client-ID": fmt.Sprintf("chaos-%d", client)}
			for i, mix := range mixes {
				resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
					GridRequest{Mixes: []string{mix}, Schemes: schemes}, headers)
				if resp.StatusCode == http.StatusAccepted {
					id := decodeBody[GridAccepted](t, resp).ID
					idMu.Lock()
					ids = append(ids, id)
					idMu.Unlock()
					// Cancel a sprinkling of jobs mid-flight.
					if (client+i)%4 == 0 {
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
						if dresp, err := ts.Client().Do(req); err == nil {
							io.Copy(io.Discard, dresp.Body)
							dresp.Body.Close()
						}
					}
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				// Synchronous cells under fire: any JSON outcome is legal
				// (200, 500 from a panicked job), crashing the daemon is not.
				mresp := postJSON(t, ts.Client(), ts.URL+"/v1/mix",
					MixRequest{Mix: mix, Scheme: schemes[i%len(schemes)]}, headers)
				io.Copy(io.Discard, mresp.Body)
				mresp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	// The daemon must still be alive and answering under fire.
	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon stopped answering: %v", err)
	}
	io.Copy(io.Discard, health.Body)
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d under faults", health.StatusCode)
	}

	// Faults off: a served cell must again match the direct runner exactly.
	in.DisarmAll()
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: "hetero-3", Scheme: "equal"}, nil)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("post-fault mix: status %d: %s", resp.StatusCode, body)
	}
	got := decodeBody[*exper.MixRun](t, resp)
	if want := directRun(t, "equal", "hetero-3"); !reflect.DeepEqual(got, want) {
		t.Error("post-fault served result diverges from direct RunMix")
	}

	// Wait for all async jobs to go terminal, then check the accounting.
	idMu.Lock()
	waitIDs := append([]string(nil), ids...)
	idMu.Unlock()
	for _, id := range waitIDs {
		waitJob(t, ts, id, 120*time.Second)
	}
	drainAndClose(t, s, ts)

	snap := s.Obs().Snapshot()
	if a := snap.Admission; a.Accepted != a.Done+a.Failed+a.Cancelled {
		t.Errorf("accounting broken: accepted %d != done %d + failed %d + cancelled %d",
			a.Accepted, a.Done, a.Failed, a.Cancelled)
	}
	if snap.Failures.FaultsInjected != in.Total() {
		t.Errorf("faults_injected = %d, injector fired %d", snap.Failures.FaultsInjected, in.Total())
	}
	if in.Total() == 0 {
		t.Error("chaos schedule fired nothing — the test exercised no faults")
	}
	if snap.Failures.Panicked == 0 {
		t.Error("no job recorded as panicked despite armed panic points")
	}
	waitGoroutines(t, baseline, 30*time.Second)
}

// TestChaosWatchTerminatesOnPanickedJob: an NDJSON watch stream of a job
// that fails from an injected panic must end with the terminal snapshot
// (state, error, error kind) instead of hanging.
func TestChaosWatchTerminatesOnPanickedJob(t *testing.T) {
	in := faultinject.New(7)
	in.Arm(faultinject.JobPanic, faultinject.Rule{})
	_, ts := newTestServer(t, Options{Exper: faultConfig(in)})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"hetero-1"}, Schemes: []string{"equal"}}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[GridAccepted](t, resp)

	watch, err := ts.Client().Get(ts.URL + "/v1/jobs/" + acc.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	var last JobSnapshot
	sc := bufio.NewScanner(watch.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("watch stream produced no snapshots")
	}
	if last.State != JobFailed {
		t.Fatalf("final snapshot state %q, want failed", last.State)
	}
	if last.ErrorKind != ErrKindPanic || !strings.Contains(last.Error, "injected job panic") {
		t.Errorf("final snapshot error (%q, kind %q) lacks panic provenance", last.Error, last.ErrorKind)
	}
}

// TestChaosWatchTerminatesOnCancelledJob: cancelling a queued job must
// terminate its watch stream with the cancelled snapshot.
func TestChaosWatchTerminatesOnCancelledJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Occupy the lone worker so the watched job stays queued.
	busy := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"hetero-1", "hetero-2", "hetero-3"}, Schemes: []string{"equal", "square-root"}}, nil)
	busyID := decodeBody[GridAccepted](t, busy).ID
	queued := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"homo-1"}, Schemes: []string{"equal"}}, nil)
	queuedID := decodeBody[GridAccepted](t, queued).ID

	type streamEnd struct {
		last JobSnapshot
		err  error
	}
	endc := make(chan streamEnd, 1)
	go func() {
		watch, err := ts.Client().Get(ts.URL + "/v1/jobs/" + queuedID + "?watch=1")
		if err != nil {
			endc <- streamEnd{err: err}
			return
		}
		defer watch.Body.Close()
		var last JobSnapshot
		sc := bufio.NewScanner(watch.Body)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				endc <- streamEnd{err: err}
				return
			}
		}
		endc <- streamEnd{last: last, err: sc.Err()}
	}()

	time.Sleep(50 * time.Millisecond) // let the watcher attach
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queuedID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	select {
	case end := <-endc:
		if end.err != nil {
			t.Fatalf("watch stream error: %v", end.err)
		}
		if end.last.State != JobCancelled {
			t.Errorf("final snapshot state %q, want cancelled", end.last.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watch stream of a cancelled job did not terminate")
	}
	waitJob(t, ts, busyID, 120*time.Second)
}

// TestChaosJobDeadline: with every cell stalled past the job timeout, the
// job fails with a distinguishable deadline error, the counter moves, and —
// the wedge-proofing — the worker detaches and serves the next job while
// the stalled executor unwinds in the background.
func TestChaosJobDeadline(t *testing.T) {
	in := faultinject.New(9)
	in.Arm(faultinject.CellDelay, faultinject.Rule{Delay: 30 * time.Second})
	s, ts := newTestServer(t, Options{Exper: faultConfig(in), Workers: 1, JobTimeout: 2 * time.Second})

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"hetero-1"}, Schemes: []string{"equal"}}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[GridAccepted](t, resp)
	snap := waitJob(t, ts, acc.ID, 30*time.Second)
	if snap.State != JobFailed || snap.ErrorKind != ErrKindDeadline {
		t.Fatalf("job ended (%q, kind %q), want failed/deadline: %s", snap.State, snap.ErrorKind, snap.Error)
	}
	if got := s.Obs().Snapshot().Failures.DeadlineExceeded; got < 1 {
		t.Errorf("jobs_deadline_exceeded = %d, want >= 1", got)
	}

	// The lone worker must already be free: with faults off, the next job
	// completes even though the first executor is still sleeping.
	in.DisarmAll()
	resp2 := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: "homo-1", Scheme: "equal"}, nil)
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("worker wedged after deadline detach: status %d: %s", resp2.StatusCode, body)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
}

// TestChaosRequestTimeout covers the per-request deadline: timeout_s fails
// a synchronous mix with 504, and the effective timeout is the tighter of
// the request and the server cap.
func TestChaosRequestTimeout(t *testing.T) {
	in := faultinject.New(10)
	in.Arm(faultinject.CellDelay, faultinject.Rule{Delay: 3 * time.Second})
	s, ts := newTestServer(t, Options{Exper: faultConfig(in), Workers: 2})

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix",
		MixRequest{Mix: "hetero-1", Scheme: "equal", TimeoutS: 0.25}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Negative timeouts are refused at admission.
	bad := postJSON(t, ts.Client(), ts.URL+"/v1/mix",
		MixRequest{Mix: "hetero-1", Scheme: "equal", TimeoutS: -1}, nil)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout_s: status %d, want 400", bad.StatusCode)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()

	// The server cap bounds request timeouts; 0 inherits the cap.
	s.opts.JobTimeout = time.Second
	if d, err := s.effectiveTimeout(5); err != nil || d != time.Second {
		t.Errorf("effectiveTimeout(5) = (%v, %v), want capped to 1s", d, err)
	}
	if d, err := s.effectiveTimeout(0.5); err != nil || d != 500*time.Millisecond {
		t.Errorf("effectiveTimeout(0.5) = (%v, %v), want 500ms", d, err)
	}
	if d, err := s.effectiveTimeout(0); err != nil || d != time.Second {
		t.Errorf("effectiveTimeout(0) = (%v, %v), want the server cap", d, err)
	}
	s.opts.JobTimeout = 0
}

// crash simulates a SIGKILL for the resume test: journaling stops instantly
// (no terminal record lands, exactly as if the process died), every job
// context dies, the queue closes, and the workers are waited out so the
// checkpoint directory stops changing.
func crash(s *Server, ts *httptest.Server) {
	ts.Close()
	s.journal.mu.Lock()
	s.journal.disabled = true
	s.journal.mu.Unlock()
	s.draining.Store(true)
	s.queue.close()
	s.jobMu.Lock()
	for _, j := range s.jobs {
		j.cancel()
	}
	s.jobMu.Unlock()
	s.workers.Wait()
	s.journal.closeFile()
}

// TestChaosKillAndResume is the crash-resume end-to-end: kill a server
// mid-grid, restart over the same checkpoint directory, find the job listed
// as interrupted, retry it, and verify the rerun simulates exactly the
// cells whose checkpoints are missing — everything else comes off disk.
func TestChaosKillAndResume(t *testing.T) {
	dir := t.TempDir()
	store1, err := exper.NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := testConfig()
	cfg1.Checkpoint = store1
	// Stall cells after the first mix completes, widening the window in
	// which the job is genuinely mid-grid.
	in := faultinject.New(21)
	in.Arm(faultinject.CellDelay, faultinject.Rule{After: 2, Delay: 400 * time.Millisecond})
	cfg1.Faults = in
	s1, err := New(Options{Exper: cfg1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	mixes := []string{"hetero-1", "hetero-2", "hetero-3"}
	schemes := []string{"equal", "square-root"}
	resp := postJSON(t, ts1.Client(), ts1.URL+"/v1/grid", GridRequest{Mixes: mixes, Schemes: schemes}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[GridAccepted](t, resp)

	// Wait until the job is genuinely mid-grid, then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := ts1.Client().Get(ts1.URL + "/v1/jobs/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		snap := decodeBody[JobSnapshot](t, st)
		if snap.CellsDone >= 2 {
			break
		}
		if snap.State.Terminal() {
			t.Fatalf("job went terminal (%q) before the crash window", snap.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the crash window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	crash(s1, ts1)

	// Count what actually survived on disk: those cells must never be
	// re-simulated by the resumed run.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := len(files)
	total := len(mixes) * len(schemes)
	if onDisk == 0 || onDisk >= total {
		t.Fatalf("crash window missed: %d/%d cells on disk", onDisk, total)
	}
	// Distinct mixes with at least one missing cell — the only warmups the
	// resumed run may pay.
	checkpointed := make(map[string]int)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var run exper.MixRun
		if err := json.Unmarshal(data, &run); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		checkpointed[run.Mix.Name]++
	}
	mixesNeedingWork := 0
	for _, m := range mixes {
		if checkpointed[m] < len(schemes) {
			mixesNeedingWork++
		}
	}

	// Restart over the same directory: the journal lists the job as
	// interrupted, with the finished cells already accounted.
	store2, err := exper.NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.Checkpoint = store2
	s2, ts2 := newTestServer(t, Options{Exper: cfg2, Workers: 1})
	list, err := ts2.Client().Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	listing := decodeBody[map[string][]JobSnapshot](t, list)
	var interrupted *JobSnapshot
	for i := range listing["jobs"] {
		if listing["jobs"][i].ID == acc.ID {
			interrupted = &listing["jobs"][i]
		}
	}
	if interrupted == nil {
		t.Fatalf("restarted server does not list %s: %+v", acc.ID, listing)
	}
	if interrupted.State != JobInterrupted {
		t.Fatalf("journal-replayed job state %q, want interrupted", interrupted.State)
	}
	if interrupted.CellsDone != onDisk {
		t.Errorf("interrupted job reports %d cells done, disk has %d", interrupted.CellsDone, onDisk)
	}

	// Retry: only the missing cells simulate; the checkpointed ones load.
	retry := postJSON(t, ts2.Client(), ts2.URL+"/v1/jobs/"+acc.ID+"/retry", struct{}{}, nil)
	if retry.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(retry.Body)
		t.Fatalf("retry status %d: %s", retry.StatusCode, body)
	}
	racc := decodeBody[GridAccepted](t, retry)
	snap := waitJob(t, ts2, racc.ID, 120*time.Second)
	if snap.State != JobDone {
		t.Fatalf("resumed job ended %q (error %q), want done", snap.State, snap.Error)
	}
	if len(snap.Results) != total {
		t.Fatalf("resumed job returned %d results, want %d", len(snap.Results), total)
	}

	ob := s2.Obs().Snapshot()
	if got, want := ob.Cache.CheckpointHits, int64(onDisk); got != want {
		t.Errorf("checkpoint hits = %d, want %d (every surviving cell)", got, want)
	}
	if got, want := ob.Cache.Misses, int64(total-onDisk); got != want {
		t.Errorf("cell simulations = %d, want %d (only the missing cells)", got, want)
	}
	if got := stageCount(ob, "warmup"); got != int64(mixesNeedingWork) {
		t.Errorf("warmups = %d, want %d (only mixes with missing cells)", got, mixesNeedingWork)
	}

	// The resumed cells are bit-identical to direct runs.
	i := 0
	for _, mixName := range mixes {
		for _, scheme := range schemes {
			want := directRun(t, scheme, mixName)
			if !reflect.DeepEqual(snap.Results[i], want) {
				t.Errorf("cell %d (%s/%s): resumed result diverges from direct RunMix", i, mixName, scheme)
			}
			i++
		}
	}

	// A second restart must not resurrect the retried job as interrupted.
	store3, err := exper.NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := testConfig()
	cfg3.Checkpoint = store3
	s3, err := New(Options{Exper: cfg3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s3.Drain(ctx)
	}()
	if j := s3.lookupJob(acc.ID); j != nil && j.snapshot().State == JobInterrupted {
		t.Error("retried job replayed as interrupted again after a clean run")
	}
}

// TestChaosJournalWriteFaultDisables: a failing journal append disables
// journaling (counted, jobs unaffected) instead of failing anything.
func TestChaosJournalWriteFaultDisables(t *testing.T) {
	store, err := exper.NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(31)
	in.Arm(faultinject.JournalWrite, faultinject.Rule{})
	cfg := faultConfig(in)
	cfg.Checkpoint = store
	s, ts := newTestServer(t, Options{Exper: cfg})
	s.journal.mu.Lock()
	s.journal.logf = func(string, ...any) {}
	s.journal.mu.Unlock()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/grid",
		GridRequest{Mixes: []string{"homo-1"}, Schemes: []string{"equal"}}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decodeBody[GridAccepted](t, resp)
	if snap := waitJob(t, ts, acc.ID, 60*time.Second); snap.State != JobDone {
		t.Fatalf("job under journal faults ended %q, want done", snap.State)
	}
	s.journal.mu.Lock()
	disabled := s.journal.disabled
	s.journal.mu.Unlock()
	if !disabled {
		t.Error("journal not disabled after write fault")
	}
	if got := s.Obs().Snapshot().Failures.CheckpointErrors; got < 1 {
		t.Errorf("journal fault not counted: checkpoint_errors = %d", got)
	}
}

// TestChaosMixJobsNotJournaled pins the journal's scope: synchronous mix
// jobs leave no accepted records, so a restart has nothing to resume.
func TestChaosMixJobsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	store, err := exper.NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Checkpoint = store
	_, ts := newTestServer(t, Options{Exper: cfg})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", MixRequest{Mix: "homo-1", Scheme: "equal"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mix status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	store2, err := exper.NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.Checkpoint = store2
	s2, err := New(Options{Exper: cfg2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Drain(ctx)
	}()
	s2.jobMu.Lock()
	residents := len(s2.jobs)
	s2.jobMu.Unlock()
	if residents != 0 {
		t.Errorf("restart replayed %d jobs from a mix-only journal, want 0", residents)
	}
}

// TestChaosMixHitsLeaveJournalAlone pins the other half of the journal's
// scope: a mix job has no accepted record, so it gets no terminal record
// either, and cells are never journaled. The cold request and every hit after
// it — in this process or after a restart — leave the file empty, so
// boot-time replay does not grow with traffic.
func TestChaosMixHitsLeaveJournalAlone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	req := MixRequest{Mix: "homo-1", Scheme: "equal"}
	const hits = 25
	for boot := 0; boot < 2; boot++ {
		store, err := exper.NewCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Checkpoint = store
		s, err := New(Options{Exper: cfg})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		for i := 0; i <= hits; i++ {
			resp := postJSON(t, ts.Client(), ts.URL+"/v1/mix", req, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("boot %d request %d: status %d", boot, i, resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("boot %d request %d wrote to the journal:\n%s", boot, i, got)
			}
		}
		if ob := s.Obs().Snapshot(); ob.Cache.Misses+ob.Cache.CheckpointHits != 1 || ob.Cache.Hits != hits {
			t.Errorf("boot %d: cell account %+v, want one miss or disk hit then %d memory hits", boot, ob.Cache, hits)
		}
		drainAndClose(t, s, ts)
	}
}

// TestChaosReplaysOldFormatJournal boots over a journal written by a build
// that also recorded one "cell" line per finished cell (testdata, with a torn
// last line): the unfinished job is listed as interrupted with as many cells
// done as have checkpoint files — the "cell" lines, stale here, are not
// consulted — the finished one is not listed, and job IDs continue past both.
func TestChaosReplaysOldFormatJournal(t *testing.T) {
	dir := t.TempDir()
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_pr22.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := exper.NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Checkpoint = store
	// One of job-3's four cells reached the disk before the crash.
	r, err := exper.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMix(mix, "equal"); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Options{Exper: cfg})

	j := s.lookupJob("job-3")
	if j == nil {
		t.Fatal("unfinished job-3 not replayed")
	}
	if snap := j.snapshot(); snap.State != JobInterrupted || snap.CellsTotal != 4 || snap.CellsDone != 1 {
		t.Errorf("job-3 replayed as %+v, want interrupted with 1/4 cells (the one on disk)", snap)
	}
	if ob := s.Obs().Snapshot(); ob.Cache.CheckpointHits+ob.Failures.CheckpointErrors != 0 {
		t.Errorf("boot read the checkpoint tier: %+v %+v", ob.Cache, ob.Failures)
	}
	if s.lookupJob("job-4") != nil {
		t.Error("finished job-4 replayed")
	}
	if id := s.newJobID(); id != "job-5" {
		t.Errorf("next job ID %s, want job-5", id)
	}
}

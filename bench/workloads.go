package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"bwpart/internal/core"
	"bwpart/internal/exper"
	"bwpart/internal/metrics"
	"bwpart/internal/obs"
	"bwpart/internal/serve"
	"bwpart/internal/workload"
)

// profileAll builds a runner and profiles every benchmark alone: the work a
// sweep pays before its first cell can be measured, and the batch workloads'
// set-up.
func profileAll(cfg exper.Config) (*exper.Runner, error) {
	r, err := exper.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range workload.Names() {
		if _, err := r.Alone(name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// coldBatch is what the two batch workloads share: set-up profiles every
// benchmark on a throwaway runner, and nothing stays resident between rounds.
type coldBatch struct{}

func (coldBatch) setup(*harness) error {
	_, err := profileAll(experConfig())
	return err
}

func (coldBatch) close()         {}
func (coldBatch) resident() bool { return false }

// ---- sweep_cold ----

// sweepCold is what cmd/sweep and cmd/figures users wait for: a fresh runner
// resolving the whole Table IV grid, two cells at a time.
type sweepCold struct {
	coldBatch
	mixes []workload.Mix
}

func (w *sweepCold) round(h *harness) (roundStats, error) {
	cfg := experConfig()
	root := h.tr.begin("round")
	t0 := time.Now()
	id := h.tr.begin("exper.newrunner")
	r, err := exper.NewRunner(cfg)
	h.tr.end(id)
	if err != nil {
		return roundStats{}, err
	}
	id = h.tr.begin("exper.rungrid")
	runs, err := r.RunGrid(context.Background(), w.mixes, h.sz.schemes)
	h.tr.end(id)
	wall := time.Since(t0)
	h.tr.end(root)
	if err != nil {
		return roundStats{}, err
	}
	for _, run := range runs {
		h.checkCell(1, run)
	}
	snap := cfg.Obs.Snapshot()
	return roundStats{
		cells: len(runs), wall: wall, counts: cacheCounts(snap),
		simSeconds: wall.Seconds() * engineParallelism, stages: snap,
	}, nil
}

// ---- scale_cold ----

// scaleCold is the paper's Figure 4 regime: 8- and 16-core systems at 2x and
// 4x bandwidth, one RunMix at a time, a sub-runner and fresh alone profiles
// per bandwidth.
type scaleCold struct {
	coldBatch
	mixes []workload.Mix
}

// scaleSchemes lists the cells Figure4Scaled resolves per mix: Equal plus
// each objective's optimal scheme.
func scaleSchemes() ([]string, error) {
	schemes := []string{"equal"}
	for _, obj := range metrics.Objectives() {
		sch, err := core.OptimalFor(obj)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, sch.Name())
	}
	return schemes, nil
}

func (w *scaleCold) round(h *harness) (roundStats, error) {
	cfg := experConfig()
	// A cache of our own, so the cells Figure4Scaled resolved (it returns
	// only their normalized averages) can be fetched back and verified.
	cfg.Cache = exper.NewResultCache()
	root := h.tr.begin("round")
	t0 := time.Now()
	id := h.tr.begin("exper.newrunner")
	r, err := exper.NewRunner(cfg)
	h.tr.end(id)
	if err != nil {
		return roundStats{}, err
	}
	id = h.tr.begin("exper.figure4scaled")
	_, err = r.Figure4Scaled(w.mixes, h.sz.factors)
	h.tr.end(id)
	wall := time.Since(t0)
	h.tr.end(root)
	if err != nil {
		return roundStats{}, err
	}
	snap := cfg.Obs.Snapshot()

	schemes, err := scaleSchemes()
	if err != nil {
		return roundStats{}, err
	}
	fetch := obs.NewCollector()
	cells := 0
	for _, factor := range h.sz.factors {
		subCfg := r.Config()
		subCfg.Obs = fetch
		subCfg.Sim.DRAM = subCfg.Sim.DRAM.ScaleBandwidth(float64(factor))
		sub, err := exper.NewRunner(subCfg)
		if err != nil {
			return roundStats{}, err
		}
		for _, mix := range w.mixes {
			for _, scheme := range schemes {
				run, err := sub.RunMix(mix.Scale(factor), scheme)
				if err != nil {
					return roundStats{}, err
				}
				h.checkCell(factor, run)
				cells++
			}
		}
	}
	if misses := fetch.Snapshot().Cache.Misses; misses != 0 {
		return roundStats{}, fmt.Errorf("%d of the %d Figure 4 cells were not in the result cache", misses, cells)
	}
	return roundStats{
		cells: cells, wall: wall, counts: cacheCounts(snap),
		simSeconds: wall.Seconds(), stages: snap,
	}, nil
}

// ---- serve_hit_mem / serve_hit_disk ----

// site is one serve.Server behind a loopback listener, plus the single
// keep-alive client connection that drives it.
type site struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
	hc   *http.Client
	body bytes.Buffer // response scratch, reused across requests
}

// openSite boots a server over cfg and starts serving on a loopback port.
func openSite(cfg exper.Config) (*site, error) {
	srv, err := serve.New(serve.Options{Exper: cfg, Workers: engineParallelism})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drain(srv)
		return nil, err
	}
	s := &site{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		hc:   newClient(),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// newClient returns an HTTP client that keeps one connection alive and never
// opens a second.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

func drain(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Drain(ctx)
}

// close drains the server, shuts the listener down, and waits for the accept
// loop to exit.
func (s *site) close() error {
	s.hc.CloseIdleConnections()
	err := drain(s.srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serveErr := <-s.done; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	return err
}

// gridCell names one cell of the serve grid.
type gridCell struct {
	mix, scheme string
}

// populate submits the grid as one asynchronous job, follows its watch stream
// to the terminal snapshot, and verifies every returned cell.
func (s *site) populate(h *harness, mixes []workload.Mix, schemes []string) error {
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = m.Name
	}
	body, err := json.Marshal(serve.GridRequest{Mixes: names, Schemes: schemes})
	if err != nil {
		return err
	}
	resp, err := s.hc.Post(s.base+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var acc serve.GridAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/grid: status %d: %v", resp.StatusCode, err)
	}

	resp, err = s.hc.Get(s.base + acc.StatusURL + "?watch=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var last serve.JobSnapshot
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20) // the terminal line carries every cell's result
	for sc.Scan() {
		last = serve.JobSnapshot{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("watch stream: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("watch stream: %w", err)
	}
	if last.State != serve.JobDone || len(last.Results) != len(mixes)*len(schemes) {
		return fmt.Errorf("grid job ended %s with %d results: %s", last.State, len(last.Results), last.Error)
	}
	for _, run := range last.Results {
		h.checkCell(1, run)
	}
	return nil
}

// request posts one /v1/mix cell and leaves the response body in s.body.
// The three steps are the spans of a traced request.
func (s *site) request(tr *tracer, c gridCell) error {
	id := tr.begin("client.encode")
	body, err := json.Marshal(serve.MixRequest{Mix: c.mix, Scheme: c.scheme})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("http.roundtrip")
	resp, err := s.hc.Post(s.base+"/v1/mix", "application/json", bytes.NewReader(body))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("client.decode")
	s.body.Reset()
	_, err = s.body.ReadFrom(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/mix %s/%s: status %d: %s", c.mix, c.scheme, resp.StatusCode, bytes.TrimSpace(s.body.Bytes()))
	}
	return nil
}

// serveHit is the hit path of sweepd under one closed-loop client on one
// keep-alive loopback connection: every request's cell is already resolved.
// With disk set the server runs in its restart-safe configuration (a
// checkpoint directory) and the timed server is a second one booted on the
// directory the first populated.
type serveHit struct {
	disk bool

	site  *site
	cells []gridCell
	// want holds each cell's response body as first served (and verified
	// against the golden digest); every later response must equal it
	// byte for byte.
	want map[gridCell][]byte

	populateSeconds float64
	populated       obs.Snapshot
}

func (w *serveHit) setup(h *harness) error {
	var dir string
	if w.disk {
		var err error
		if dir, err = h.tempDir(); err != nil {
			return err
		}
	}
	boot := func() (*site, error) {
		cfg := experConfig()
		if w.disk {
			var err error
			if cfg.Checkpoint, err = exper.NewCheckpointStore(dir); err != nil {
				return nil, err
			}
		}
		return openSite(cfg)
	}

	t0 := time.Now()
	var err error
	if w.site, err = boot(); err != nil {
		return err
	}
	if err := w.site.populate(h, h.sz.serveMixes, h.sz.schemes); err != nil {
		return err
	}
	w.populateSeconds = time.Since(t0).Seconds()
	w.populated = w.site.srv.Obs().Snapshot()

	if w.disk {
		// Restart: drain the populating server, boot a second one on the
		// directory it left behind.
		first := w.site
		w.site = nil
		if err := first.close(); err != nil {
			return err
		}
		if w.site, err = boot(); err != nil {
			return err
		}
	}

	for _, m := range h.sz.serveMixes {
		for _, scheme := range h.sz.schemes {
			w.cells = append(w.cells, gridCell{m.Name, scheme})
		}
	}
	rand.New(rand.NewSource(h.seed)).Shuffle(len(w.cells), func(a, b int) {
		w.cells[a], w.cells[b] = w.cells[b], w.cells[a]
	})
	w.want = make(map[gridCell][]byte, len(w.cells))
	return nil
}

func (w *serveHit) round(h *harness) (roundStats, error) {
	before := w.site.srv.Obs().Snapshot()
	passes := h.sz.passes[h.workload]
	lat := make([]int64, 0, passes*len(w.cells))
	root := h.tr.begin("round")
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, c := range w.cells {
			id := h.tr.begin("req")
			start := time.Now()
			err := w.site.request(h.tr, c)
			lat = append(lat, int64(time.Since(start)))
			h.tr.end(id)
			h.attempted++
			if err != nil {
				h.fail(err)
				continue
			}
			if want, ok := w.want[c]; ok {
				if !bytes.Equal(w.site.body.Bytes(), want) {
					h.fail(fmt.Errorf("%s/%s: response differs from the first one served", c.mix, c.scheme))
				}
				continue
			}
			if err := w.firstBody(h, c); err != nil {
				h.fail(err)
			}
		}
	}
	wall := time.Since(t0)
	h.tr.end(root)

	after := w.site.srv.Obs().Snapshot()
	counts := cacheCounts(after)
	for name, v := range cacheCounts(before) {
		if name != "exper.cache_bytes" { // a gauge; the rest count this round's events
			counts[name] -= v
		}
	}
	return roundStats{
		cells: len(lat), wall: wall, latNS: lat, counts: counts,
		simSeconds: w.populateSeconds * engineParallelism, stages: w.populated,
	}, nil
}

// firstBody verifies the first response served for a cell against the golden
// digest and keeps it as the reference for every later response.
func (w *serveHit) firstBody(h *harness, c gridCell) error {
	body := append([]byte(nil), w.site.body.Bytes()...)
	var run exper.MixRun
	if err := json.Unmarshal(body, &run); err != nil {
		return fmt.Errorf("%s/%s: decoding response: %w", c.mix, c.scheme, err)
	}
	w.want[c] = body
	return h.gold.checkCell(1, &run)
}

func (w *serveHit) close() {
	if w.site != nil {
		w.site.close()
		w.site = nil
	}
}

func (*serveHit) resident() bool { return true }

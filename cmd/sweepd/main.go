// Command sweepd is the simulation daemon: the experiment engine behind an
// HTTP/JSON API (see internal/serve), with server-oriented defaults — a
// bounded result cache and a checkpoint directory are expected, so repeated
// cells are answered from memory or disk instead of re-simulated, across
// clients and restarts. GET /metrics is its statistics surface.
//
//	sweepd -addr :8080 -checkpoint-dir /var/lib/bwpart
//	curl -s localhost:8080/v1/mix -d '{"mix":"hetero-1","scheme":"equal"}'
//
// SIGINT/SIGTERM drain: admission closes (503), accepted jobs finish, the
// process exits cleanly.
package main

import (
	"context"
	"flag"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bwpart"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepd: ")
	addr := flag.String("addr", ":8080", "listen address")
	quick := flag.Bool("quick", true, "use reduced simulation windows")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "max concurrent simulations per job (0 = $BWPART_PARALLELISM or GOMAXPROCS)")
	checkpointDir := flag.String("checkpoint-dir", "",
		"persist finished cells to this directory; a restarted daemon serves them from disk")
	cacheMB := flag.Int("cache-mb", 256, "in-memory result cache budget in MiB (LRU-evicted beyond it)")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = server default)")
	maxQueue := flag.Int("max-queue", 0, "queued-job bound before 429s (0 = server default)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute,
		"how long a shutdown drain may wait for accepted jobs before cancelling them")
	jobTimeout := flag.Duration("job-timeout", 0,
		"cap each job's wall-clock execution; past it the job fails with a \"deadline\" error and its worker moves on (0 = unlimited; a request's timeout_s can tighten but never exceed this)")
	flag.Parse()

	cfg := bwpart.DefaultExperiments()
	if *quick {
		cfg = bwpart.QuickExperiments()
	}
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	if int64(*cacheMB) > math.MaxInt64>>20 {
		log.Fatalf("-cache-mb %d: the result-cache budget overflows (at most %d MiB)", *cacheMB, int64(math.MaxInt64>>20))
	}
	cfg.CacheBytes = int64(*cacheMB) << 20
	if *checkpointDir != "" {
		store, err := bwpart.NewCheckpointStore(*checkpointDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Checkpoint = store
	}
	srv, err := bwpart.NewServer(bwpart.ServerOptions{
		Exper:      cfg,
		Workers:    *workers,
		MaxQueue:   *maxQueue,
		JobTimeout: *jobTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("serving on http://%s (SIGINT/SIGTERM drains)", ln.Addr())
	if err := srv.Run(ctx, ln, *drainTimeout); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, exiting")
}

// Command waved is the long-running simulation service: an HTTP/JSON
// job API over the wave facade with a bounded priority queue, a shared
// worker budget, and a process-wide artifact cache keyed by canonical
// configuration hash (identical configurations share meshes, operators,
// partitions and batch plans, built exactly once).
//
// Usage:
//
//	waved [-addr :8457] [-queue 64] [-concurrency 2] [-workers N] [-cache 64]
//	      [-spool DIR] [-ckpt-every 4] [-retry-base 500ms] [-auto-tune 0]
//
// With -auto-tune set to a probing budget (e.g. 30s), the first job of
// each configuration calibrates a deployment shape (the worker count)
// by measured-min over short probe runs; the tuned plan is
// cached in the artifact cache, so subsequent same-config jobs run with
// the tuned shape at no extra cost. GET /stats reports each job's
// tuned_workers / tuned_ranks / rebalances.
//
// With -spool, job specs, per-job checkpoints and streamed rows persist
// under DIR: a restarted waved pointed at the same directory replays
// every unfinished job and resumes mid-run from the newest checkpoint,
// with the delivered row stream byte-identical to an uninterrupted run.
//
// Endpoints (see golts/internal/serve):
//
//	POST   /jobs            submit a simulation (cmd/wavesim JSON config
//	                        plus priority/workers/partitioner/seed; with
//	                        "ranks" the job runs on the distributed
//	                        backend, and "min_ranks"/"max_recoveries"
//	                        control degraded-mode survival of permanent
//	                        rank loss — rows stay byte-identical);
//	                        202 with the job id, 429 when the queue is full
//	GET    /jobs/{id}       poll state, timings and final stats
//	GET    /jobs/{id}/rows  stream seismogram CSV rows as produced
//	DELETE /jobs/{id}       cancel (queued or running)
//	GET    /healthz         liveness
//	GET    /stats           queue depth, in-flight jobs, cache counters
//
// SIGINT/SIGTERM shut the service down gracefully: in-flight jobs are
// cancelled (with -spool: parked, spool entries kept for the next
// instance) and the listener drains before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"golts/internal/serve"
	"golts/wave"
)

func main() {
	// Jobs submitted with "ranks" run on the distributed backend, which
	// re-execs this binary as its rank processes.
	wave.RankMain()
	addr := flag.String("addr", ":8457", "listen address")
	queue := flag.Int("queue", 64, "maximum queued jobs (beyond this, submissions get 429)")
	concurrency := flag.Int("concurrency", 2, "simulations run simultaneously")
	workers := flag.Int("workers", 0, "total worker budget shared by in-flight jobs (0: same as -concurrency)")
	cache := flag.Int("cache", 0, "artifact cache entries (0: default)")
	spool := flag.String("spool", "", "durability directory: persist jobs/checkpoints/rows, replay on restart (empty: off)")
	ckptEvery := flag.Int("ckpt-every", 0, "per-job checkpoint interval in cycles with -spool (0: default 4)")
	retryBase := flag.Duration("retry-base", 0, "first retry backoff for infra failures, doubling per retry (0: default 500ms)")
	autoTune := flag.Duration("auto-tune", 0, "calibration budget per configuration: probe deployment shapes and place jobs with the tuned one (0: off)")
	flag.Parse()

	srv, err := serve.New(serve.Config{
		MaxQueue:        *queue,
		Concurrency:     *concurrency,
		WorkerBudget:    *workers,
		CacheSize:       *cache,
		SpoolDir:        *spool,
		CheckpointEvery: *ckptEvery,
		RetryBaseDelay:  *retryBase,
		AutoTune:        *autoTune,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "waved:", err)
		os.Exit(1)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sigs
		fmt.Fprintln(os.Stderr, "waved: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
	}()

	fmt.Fprintf(os.Stderr, "waved: listening on %s (queue %d, concurrency %d)\n", *addr, *queue, *concurrency)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "waved:", err)
		os.Exit(1)
	}
	<-done
}

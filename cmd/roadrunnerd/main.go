// Command roadrunnerd is the campaign orchestration service: a durable run
// queue, a content-addressed result cache, and an HTTP experiment API over
// the deterministic simulation core. Clients submit declarative campaign
// manifests (strategies × seeds × fault scenarios × config overrides); the
// service expands them into content-addressed run specs, executes them on a
// bounded worker pool, persists every result, and serves previously
// computed runs byte-identically without re-executing a single tick.
//
// Usage:
//
//	roadrunnerd [-addr 127.0.0.1:8383] [-store results/store] [-workers N] [-resume]
//
// Endpoints:
//
//	POST /v1/campaigns             submit a manifest, returns 202 + status
//	GET  /v1/campaigns             list submitted campaigns
//	GET  /v1/campaigns/{id}        campaign status snapshot
//	GET  /v1/campaigns/{id}/events SSE progress stream
//	GET  /v1/runs/{key}            verified canonical result bytes (?view=meta|spec)
//	GET  /v1/runs/{key}/trace      simulated-time span trace (?format=json|csv)
//	GET  /metrics                  Prometheus-style scheduler/store gauges
//	GET  /healthz                  liveness probe
//
// The -pprof flag additionally mounts net/http/pprof under /debug/pprof/.
//
// Cluster modes:
//
//	roadrunnerd -cluster               additionally serve the coordinator
//	                                   API under /v1/cluster/ (see
//	                                   internal/cluster) and advance the
//	                                   cluster's logical lease clock
//	roadrunnerd -join URL -node NAME   run as a worker: register with the
//	                                   coordinator at URL, heartbeat, claim
//	                                   runs, execute them against the
//	                                   shared store, report outcomes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "roadrunnerd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("roadrunnerd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8383", "listen address")
	storeDir := fs.String("store", "results/store", "durable result store directory")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	attempts := fs.Int("max-attempts", 2, "executions per run before it is failed")
	resume := fs.Bool("resume", false, "resume journaled campaigns at startup")
	pprofEnabled := fs.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	clusterMode := fs.Bool("cluster", false, "serve the cluster coordinator API under /v1/cluster/")
	policyName := fs.String("policy", "round-robin", "cluster routing policy: round-robin, least-loaded, config-affinity")
	leaseTTL := fs.Int("lease-ttl", 6, "cluster lease TTL in logical ticks")
	stealAfter := fs.Int("steal-after", 3, "ticks an unstarted claim may idle before it is stealable")
	maxOutstanding := fs.Int("max-outstanding", 0, "cluster admission cap on unfinished runs; submits past it get 429 (0 = uncapped)")
	compactEvery := fs.Int("compact-every", 0, "queue-log entries between snapshot compactions (0 = default, negative disables)")
	tick := fs.Duration("tick", 500*time.Millisecond, "host interval between cluster clock ticks")
	join := fs.String("join", "", "worker mode: coordinator base URL to join (e.g. http://127.0.0.1:8383)")
	nodeName := fs.String("node", "", "worker mode: this node's name")
	capacity := fs.Int("capacity", 2, "worker mode: max claims held at once")
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := campaign.OpenStore(*storeDir)
	if err != nil {
		return err
	}

	if *join != "" {
		if *nodeName == "" {
			return fmt.Errorf("-join requires -node")
		}
		return runWorker(workerConfig{
			join:     *join,
			node:     *nodeName,
			capacity: *capacity,
			store:    store,
			attempts: *attempts,
			out:      out,
		})
	}

	sched := campaign.NewScheduler(campaign.Options{
		Workers:     *workers,
		Store:       store,
		MaxAttempts: *attempts,
	})
	srv := newServer(sched)
	mux := srv.routes(*pprofEnabled)
	var co *cluster.Coordinator
	if *clusterMode {
		policy, err := cluster.PolicyByName(*policyName)
		if err != nil {
			return err
		}
		co, err = cluster.NewCoordinator(cluster.Options{
			Store:          store,
			Policy:         policy,
			LeaseTTL:       campaign.Tick(*leaseTTL),
			StealAfter:     campaign.Tick(*stealAfter),
			MaxOutstanding: *maxOutstanding,
			CompactEvery:   *compactEvery,
		})
		if err != nil {
			return err
		}
		co.Routes(mux)
		defer co.Close()
		fmt.Fprintf(out, "roadrunnerd: cluster coordinator enabled (policy %s, lease TTL %d ticks)\n",
			policy.Name(), *leaseTTL)
	}
	if *resume {
		n, err := srv.resumeJournaled(co, out)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "roadrunnerd: resumed %d journaled campaign(s)\n", n)
	}
	var stopTicking func()
	if co != nil {
		stopTicking = startClusterClock(co, *tick)
	}

	fmt.Fprintf(out, "roadrunnerd: listening on %s (store %s, %d max attempts)\n",
		*addr, *storeDir, *attempts)
	hs := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// SSE streams stay open indefinitely, so only the header read is
		// bounded; this is host-side service plumbing, not simulated time.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until the listener fails or a termination signal arrives; on
	// signal, stop accepting, then join every in-flight campaign goroutine
	// so journals close at a run boundary instead of mid-write.
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	select {
	case err := <-serveErr:
		if stopTicking != nil {
			stopTicking()
		}
		srv.drain()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(out, "roadrunnerd: %s, draining in-flight campaigns\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		if stopTicking != nil {
			stopTicking()
		}
		srv.drain()
		return nil
	}
}

// startClusterClock advances the coordinator's logical lease clock from
// a host timer — the one place cluster timing touches the wall clock;
// the lease protocol itself only ever sees tick counts. The returned
// stop function joins the ticking goroutine.
func startClusterClock(co *cluster.Coordinator, interval time.Duration) func() {
	ticker := time.NewTicker(interval) //roadlint:allow wallclock cluster lease clock is driven from the service edge; the protocol only sees logical ticks
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ticker.C:
				co.Advance()
			case <-stop:
				return
			}
		}
	}()
	return func() {
		ticker.Stop()
		close(stop)
		<-done
	}
}

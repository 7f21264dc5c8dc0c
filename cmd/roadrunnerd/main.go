// Command roadrunnerd is the campaign orchestration service: a durable run
// queue, a content-addressed result cache, and an HTTP experiment API over
// the deterministic simulation core. Clients submit declarative campaign
// manifests (strategies × seeds × fault scenarios × config overrides); the
// service expands them into content-addressed run specs, leases them to
// nodes, persists every result, and serves previously computed runs
// byte-identically without re-executing a single tick.
//
// Every roadrunnerd that is not a joined worker is a cluster coordinator
// (internal/cluster): one durable queue, one campaign registry, one resume
// protocol. What varies is only who executes:
//
//	roadrunnerd                        the coordinator plus one in-process
//	                                   node, "local", with -workers slots
//	                                   (0 = GOMAXPROCS); workers may join
//	                                   it as well
//	roadrunnerd -cluster               the coordinator alone: nothing
//	                                   executes until workers join
//	roadrunnerd -join URL -node NAME   a worker: register with the
//	                                   coordinator at URL, heartbeat, claim
//	                                   runs, execute them against the
//	                                   shared store, report outcomes
//
// The in-process node and a joined worker run the same claim loop
// (cluster.Worker); -resume re-registers every journaled campaign with
// the coordinator, whose queue still holds their unfinished runs.
//
// Endpoints:
//
//	POST /v1/cluster/campaigns             submit a manifest, returns 202 + status
//	GET  /v1/cluster/campaigns             list submitted campaigns
//	GET  /v1/cluster/campaigns/{id}        campaign status snapshot
//	GET  /v1/cluster/campaigns/{id}/events SSE progress stream
//	GET  /v1/cluster/campaigns/{id}/result merged canonical artifact
//	     /v1/cluster/...                   fleet view and worker verbs (see
//	                                       cluster.Coordinator.Routes)
//	GET  /v1/runs/{key}                    verified canonical result bytes (?view=meta|spec)
//	GET  /v1/runs/{key}/trace              simulated-time span trace (?format=json|csv)
//	GET  /metrics                          Prometheus-style coordinator/executor/store gauges
//	GET  /healthz                          liveness probe
//
// The -pprof flag additionally mounts net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "roadrunnerd:", err)
		os.Exit(1)
	}
}

// localNode names a daemon's in-process node in the fleet view.
const localNode = "local"

// run is the whole process; it returns when the listener fails or ctx
// ends (main ends it on SIGINT/SIGTERM).
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("roadrunnerd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8383", "listen address")
	storeDir := fs.String("store", "results/store", "durable result store directory")
	workers := fs.Int("workers", 0, "slots of the in-process node (0 = GOMAXPROCS); unused with -cluster")
	attempts := fs.Int("max-attempts", 2, "executions per run before it is failed")
	resume := fs.Bool("resume", false, "resume journaled campaigns at startup")
	pprofEnabled := fs.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	clusterMode := fs.Bool("cluster", false, "run no in-process node: the coordinator alone, workers join")
	leaseTTL := fs.Int("lease-ttl", 6, "lease TTL in logical ticks")
	stealAfter := fs.Int("steal-after", 3, "ticks an unstarted claim may idle before it is stealable")
	maxOutstanding := fs.Int("max-outstanding", 0, "admission cap on unfinished runs; submits past it get 429 (0 = uncapped)")
	compactEvery := fs.Int("compact-every", 0, "queue-log entries between snapshot compactions (0 = default, negative disables)")
	tick := fs.Duration("tick", 500*time.Millisecond, "host interval between lease clock ticks")
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
		w := &cluster.Worker{
			Link: cluster.NewClient(*join, *nodeName), Node: *nodeName, Capacity: *capacity,
			// A claimed batch executes serially: capacity is how many
			// claims the node holds, not a pool size.
			Runner: cluster.NewRunner(store, 1, *attempts, nil), Logf: logTo(out),
		}
		if err := w.Run(ctx.Done()); err != nil {
			return fmt.Errorf("join %s: %w", *join, err)
		}
		fmt.Fprintf(out, "roadrunnerd: worker %s leaving cluster\n", *nodeName)
		return nil
	}

	co, err := cluster.NewCoordinator(cluster.Options{
		Store:          store,
		LeaseTTL:       campaign.Tick(*leaseTTL),
		StealAfter:     campaign.Tick(*stealAfter),
		MaxOutstanding: *maxOutstanding,
		CompactEvery:   *compactEvery,
	})
	if err != nil {
		return err
	}
	defer co.Close()
	fmt.Fprintf(out, "roadrunnerd: coordinator up (lease TTL %d ticks)\n", *leaseTTL)
	if *resume {
		n, err := resumeJournaled(co, out)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "roadrunnerd: resumed %d journaled campaign(s)\n", n)
	}
	defer startClusterClock(co, *tick)()

	// Unless -cluster, one in-process node executes: the same Worker loop
	// a joined worker runs, over direct calls instead of HTTP.
	var local *cluster.Runner
	if !*clusterMode {
		slots := *workers
		if slots <= 0 {
			slots = runtime.GOMAXPROCS(0)
		}
		local = cluster.NewRunner(store, slots, *attempts, nil)
		defer startLocalNode(co, local, slots, out)()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "roadrunnerd: listening on %s (store %s, %d max attempts)\n",
		ln.Addr(), *storeDir, *attempts)
	hs := &http.Server{
		Handler: newServer(co, local).routes(*pprofEnabled),
		// SSE streams stay open indefinitely, so only the header read is
		// bounded; this is host-side service plumbing, not simulated time.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until the listener fails or ctx ends; then stop accepting and
	// (deferred, in this order) let the in-process node report the batch
	// it is running, stop the clock, close the coordinator. Nothing waits
	// for campaigns to finish: what is not done is in the durable queue
	// for the next start with -resume.
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "roadrunnerd: stopping after the batch in flight")
		shutdown, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdown)
		return nil
	}
}

// startLocalNode runs the in-process node, woken by the coordinator's
// own events — a submission, or a lease coming back — so the first run
// of a campaign waits for neither a round trip nor the idle poll. The
// returned stop function returns once the batch in flight is reported.
func startLocalNode(co *cluster.Coordinator, runner *cluster.Runner, slots int, out io.Writer) func() {
	wake := make(chan struct{}, 1)
	co.Observe(func(ev cluster.Event) {
		if ev.Type == "submit" || ev.Type == "lease-expired" {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	})
	w := &cluster.Worker{
		Link: cluster.LocalLink(co, localNode), Node: localNode, Capacity: slots,
		Runner: runner, Wake: wake, Logf: logTo(out),
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(stop) // a LocalLink never fails to register
	}()
	return func() { close(stop); <-done }
}

// logTo prefixes a worker's log lines the way the daemon's own are.
func logTo(out io.Writer) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(out, "roadrunnerd: "+format+"\n", args...)
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

package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

// workerConfig assembles a worker-mode process.
type workerConfig struct {
	join     string
	node     string
	capacity int
	store    *campaign.Store
	attempts int
	out      io.Writer
}

// Worker pacing. All of these are host-side service-edge intervals: the
// lease protocol itself runs on the coordinator's logical tick clock and
// never observes them, so they affect latency only, never results.
const (
	heartbeatInterval = 500 * time.Millisecond
	idlePollInterval  = 200 * time.Millisecond
	registerRetry     = time.Second
	registerAttempts  = 30
)

// runWorker joins the coordinator, heartbeats in the background, and
// runs the claim loop until a termination signal: request assignments,
// pass the StartBatch execution gate (dropping stale claims unexecuted),
// execute against the shared store, report the outcomes. A stale slot
// from StartBatch or CompleteBatch means the lease was stolen or expired
// — the worker simply moves on; the re-issued claim's runner finds the
// result in the store if this worker already published it.
func runWorker(cfg workerConfig) error {
	client := cluster.NewClient(cfg.join, cfg.node)
	var err error
	for attempt := 0; attempt < registerAttempts; attempt++ {
		if err = client.Register(cfg.capacity); err == nil {
			break
		}
		time.Sleep(registerRetry) //roadlint:allow wallclock coordinator-join retry pacing at the service edge
	}
	if err != nil {
		return fmt.Errorf("join %s: %w", cfg.join, err)
	}
	fmt.Fprintf(cfg.out, "roadrunnerd: worker %s joined %s (capacity %d)\n", cfg.node, cfg.join, cfg.capacity)

	runner := cluster.NewRunner(cfg.store, cfg.attempts, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Heartbeats run beside the claim loop so a long execution cannot
	// starve lease extension. Joined on shutdown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(heartbeatInterval) //roadlint:allow wallclock worker heartbeat pacing at the service edge
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_ = client.Heartbeat()
			}
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	idle := time.NewTimer(0) //roadlint:allow wallclock idle-claim poll pacing at the service edge
	defer idle.Stop()
	for {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(cfg.out, "roadrunnerd: worker %s: %s, leaving cluster\n", cfg.node, sig)
			close(stop)
			wg.Wait()
			return nil
		case <-idle.C:
		}
		asgs, err := client.Claims(cfg.capacity)
		if err != nil || len(asgs) == 0 {
			idle.Reset(idlePollInterval)
			continue
		}
		// One round-trip gates the whole batch; a stale slot (stolen or
		// expired before we began) drops only its own assignment.
		leases := make([]campaign.LeaseID, len(asgs))
		for i, asg := range asgs {
			leases[i] = asg.Lease
		}
		startErrs, err := client.StartBatch(leases)
		if err != nil {
			idle.Reset(idlePollInterval)
			continue
		}
		var reports []cluster.CompletionReport
		var ran []cluster.Assignment
		for i, asg := range asgs {
			if startErrs[i] != nil {
				continue // stale or rejected; drop without executing
			}
			out := runner.Run(asg)
			reports = append(reports, cluster.CompletionReport{Lease: asg.Lease, Outcome: out})
			ran = append(ran, asg)
		}
		if compErrs, err := client.CompleteBatch(reports); err == nil {
			for i, asg := range ran {
				if compErrs[i] != nil {
					continue // lease expired mid-run; the re-issued claim will serve our stored result
				}
				fmt.Fprintf(cfg.out, "roadrunnerd: worker %s: %s %s (%.8s)\n", cfg.node, reports[i].Outcome.State, asg.Spec.Name, asg.Key)
			}
		}
		idle.Reset(0) // more work may be waiting; claim again immediately
	}
}

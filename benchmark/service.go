package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

// Bounded waits of the service harness.
const (
	bootTimeout     = 30 * time.Second
	campaignTimeout = 150 * time.Second
	requestTimeout  = 60 * time.Second
	// pollInterval is how often the client re-reads campaign status while
	// a campaign runs. A campaign's time is only known to the nearest
	// poll, so the interval is kept near 1 % of the shortest campaign.
	pollInterval = 20 * time.Millisecond
)

// service is one coordinator plus its workers: the real roadrunnerd
// binary, one process each, sharing one store directory.
type service struct {
	base     string
	storeDir string
	co       *child
	workers  []*child
	tally    *tally
	// hc carries every request on a single connection; sse is the one
	// extra connection a traced campaign's event stream uses.
	hc  *http.Client
	sse *http.Client
}

func oneConnClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// startCoordinator execs `roadrunnerd -cluster` on storeDir — every other
// flag at its default — and waits until /healthz and /v1/cluster/nodes
// both answer 200.
func startCoordinator(ctx context.Context, bin, dir, storeDir string, t *tally) (*service, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	co, err := startChild("coordinator", bin, filepath.Join(dir, "coordinator.log"),
		"-addr", addr, "-cluster", "-store", storeDir)
	if err != nil {
		return nil, err
	}
	s := &service{
		base: "http://" + addr, storeDir: storeDir, co: co, tally: t,
		hc: oneConnClient(requestTimeout), sse: oneConnClient(0),
	}
	err = waitFor(ctx, "coordinator boot", bootTimeout, []*child{co}, func() bool {
		return s.probe("/healthz") && s.probe("/v1/cluster/nodes")
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// startService boots a coordinator on a fresh store under dir and joins
// workers worker processes, returning once all of them are alive in the
// fleet view.
func startService(ctx context.Context, bin, dir string, workers int, t *tally) (*service, error) {
	storeDir := filepath.Join(dir, "store")
	s, err := startCoordinator(ctx, bin, dir, storeDir, t)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("w%d", i)
		w, err := startChild(name, bin, filepath.Join(dir, name+".log"),
			"-join", s.base, "-node", name, "-capacity", fmt.Sprint(workerCapacity), "-store", storeDir)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	err = waitFor(ctx, "workers joining", bootTimeout, s.procs(), func() bool {
		nodes, err := s.nodes()
		if err != nil {
			return false
		}
		alive := 0
		for _, n := range nodes {
			if n.Alive {
				alive++
			}
		}
		return alive == workers
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *service) procs() []*child { return append([]*child{s.co}, s.workers...) }

// stop kills every process of the service and waits for each to end.
func (s *service) stop() {
	if s == nil {
		return
	}
	for _, c := range s.procs() {
		c.kill()
	}
	s.hc.CloseIdleConnections()
	s.sse.CloseIdleConnections()
}

func (s *service) peakRSSMB() float64 {
	var total float64
	for _, c := range s.procs() {
		if v, err := peakRSSMB(c.pid()); err == nil {
			total += v
		}
	}
	return total
}

// probe is a health poll: failures are expected while a child boots, so
// they are not operations and are not tallied.
func (s *service) probe(path string) bool {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// request issues one API request on the request connection. Any error or
// non-2xx status is a failed operation.
func (s *service) request(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.tally.fail("%s %s: %v", method, path, err)
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data[:min(len(data), 512)]))
	}
	if err != nil {
		s.tally.fail("%s %s: %v", method, path, err)
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	s.tally.ok(1)
	return data, nil
}

func (s *service) nodes() ([]cluster.NodeStatus, error) {
	resp, err := s.hc.Get(s.base + "/v1/cluster/nodes")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	var reply struct {
		Nodes []cluster.NodeStatus `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	return reply.Nodes, nil
}

// campaignRun is one submitted campaign, POST to merged bytes in hand.
type campaignRun struct {
	id     string
	wall   float64
	merged []byte
	status campaign.Status
	// firstResultS is submit → first terminal run event on the SSE
	// stream; eventCounts tallies coordinator events by type. Both are
	// only filled on traced campaigns.
	firstResultS float64
	eventCounts  map[string]int
}

// runCampaign submits m and follows it to its merged result: one client,
// one request at a time. On traced campaigns it also holds the campaign's
// SSE stream open on a second connection.
func (s *service) runCampaign(ctx context.Context, m campaign.Manifest, rec *recorder, op int) (*campaignRun, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, campaignTimeout)
	defer cancel()
	run := &campaignRun{}
	t0 := now()
	root := rec.begin("campaign", 0, op)
	defer rec.end(root)

	id := rec.begin("cluster.http.submit", root, op)
	data, err := s.request(ctx, http.MethodPost, "/v1/cluster/campaigns", body)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &run.status); err != nil {
		s.tally.fail("submit reply: %v", err)
		return nil, err
	}
	run.id = run.status.ID

	var stream *eventStream
	if rec != nil && !run.status.Done {
		stream = s.follow(ctx, run.id, t0)
	}
	for !run.status.Done {
		sleep(pollInterval)
		id := rec.begin("cluster.http.status", root, op)
		data, err := s.request(ctx, http.MethodGet, "/v1/cluster/campaigns/"+run.id, nil)
		rec.count(id, "bytes", float64(len(data)))
		rec.end(id)
		if err == nil {
			// A fresh value each poll: decoding into a reused slice would
			// keep omitted fields of the previous snapshot.
			var st campaign.Status
			err = json.Unmarshal(data, &st)
			run.status = st
		}
		if err != nil {
			cancel() // ends the event stream so its goroutine can be joined
			stream.wait()
			return nil, fmt.Errorf("campaign %s: %w; coordinator log tail:\n%s", run.id, err, s.co.logTail())
		}
	}
	id = rec.begin("cluster.http.result", root, op)
	run.merged, err = s.request(ctx, http.MethodGet, "/v1/cluster/campaigns/"+run.id+"/result", nil)
	rec.count(id, "bytes", float64(len(run.merged)))
	rec.end(id)
	run.wall = since(t0)
	if stream != nil {
		run.firstResultS, run.eventCounts = stream.wait()
	}
	if err != nil {
		return nil, err
	}
	return run, nil
}

// eventStream follows one campaign's SSE stream on its own goroutine.
type eventStream struct {
	done        chan struct{}
	firstResult float64
	counts      map[string]int
}

// follow subscribes to the campaign's events. The stream ends when the
// server closes it after the terminal event, or when ctx ends.
func (s *service) follow(ctx context.Context, id string, t0 time.Time) *eventStream {
	es := &eventStream{done: make(chan struct{}), counts: make(map[string]int)}
	go func() {
		defer close(es.done)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/cluster/campaigns/"+id+"/events", nil)
		if err != nil {
			return
		}
		resp, err := s.sse.Do(req)
		if err != nil {
			return
		}
		defer func() { _ = resp.Body.Close() }()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev struct {
				Type string              `json:"type"`
				Run  *campaign.RunStatus `json:"run"`
			}
			if json.Unmarshal([]byte(data), &ev) != nil {
				continue
			}
			es.counts[ev.Type]++
			if ev.Type == "run" && ev.Run != nil && ev.Run.State.Terminal() && es.firstResult == 0 {
				es.firstResult = since(t0)
			}
		}
	}()
	return es
}

// wait joins the stream's goroutine and returns what it saw.
func (es *eventStream) wait() (float64, map[string]int) {
	if es == nil {
		return 0, nil
	}
	<-es.done
	return es.firstResult, es.counts
}

package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"roadrunner/internal/campaign"
)

// maxBodyBytes bounds every decoded request body.
const maxBodyBytes = 1 << 20

// bodyReadTimeout bounds how long a POST request's body may take to
// arrive, so a client that sends headers and then stalls (a slow-loris
// body) is cut off instead of holding a handler forever. The deadline
// stays set after decoding: the server discards an unread body remainder
// after the handler returns, and that read must not wait forever either.
// A variable only so tests can shorten it.
var bodyReadTimeout = 10 * time.Second

// Routes mounts the coordinator's HTTP API on mux:
//
//	POST /v1/cluster/campaigns               submit a manifest
//	GET  /v1/cluster/campaigns               list campaign statuses
//	GET  /v1/cluster/campaigns/{id}          one campaign's status
//	GET  /v1/cluster/campaigns/{id}/events   SSE progress stream
//	GET  /v1/cluster/campaigns/{id}/result   merged canonical artifact (409 while running)
//	GET  /v1/cluster/nodes                   fleet status
//	POST /v1/cluster/register                worker join
//	POST /v1/cluster/heartbeat               worker liveness
//	POST /v1/cluster/claims                  worker work request (batched: one call grants many)
//	POST /v1/cluster/starts                  execution gate for a batch of leases
//	POST /v1/cluster/complete                outcome report for a batch of leases
//
// starts takes {"node","leases":[...]} and complete takes
// {"node","completes":[{"lease","outcome"},...]}; a node with one lease
// sends a batch of one. Both answer 200 with a per-slot results array —
// a stale lease flags only its own slot ("stale":true), never the
// siblings. Submissions rejected by admission backpressure answer 429
// with a Retry-After hint.
func (co *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/campaigns", co.handleSubmit)
	mux.HandleFunc("GET /v1/cluster/campaigns", co.handleList)
	mux.HandleFunc("GET /v1/cluster/campaigns/{id}", co.handleStatus)
	mux.HandleFunc("GET /v1/cluster/campaigns/{id}/events", co.handleEvents)
	mux.HandleFunc("GET /v1/cluster/campaigns/{id}/result", co.handleResult)
	mux.HandleFunc("GET /v1/cluster/nodes", co.handleNodes)
	mux.HandleFunc("POST /v1/cluster/register", co.handleRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/claims", co.handleClaims)
	mux.HandleFunc("POST /v1/cluster/starts", co.handleStarts)
	mux.HandleFunc("POST /v1/cluster/complete", co.handleComplete)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	rc := http.NewResponseController(w)
	//roadlint:allow wallclock a read deadline at the service edge, not simulation time
	if err := rc.SetReadDeadline(time.Now().Add(bodyReadTimeout)); err != nil {
		return err
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func clusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func clusterError(w http.ResponseWriter, status int, err error) {
	clusterJSON(w, status, map[string]string{"error": err.Error()})
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var m campaign.Manifest
	if err := decodeBody(w, r, &m); err != nil {
		clusterError(w, http.StatusBadRequest, fmt.Errorf("decode manifest: %w", err))
		return
	}
	id, err := co.Submit(m)
	if err != nil {
		if errors.Is(err, ErrBacklogFull) {
			// Backpressure, not a bad request: the manifest is fine and
			// should be resubmitted verbatim once the backlog drains.
			w.Header().Set("Retry-After", "1")
			clusterError(w, http.StatusTooManyRequests, err)
			return
		}
		clusterError(w, http.StatusBadRequest, err)
		return
	}
	c, err := co.Campaign(id)
	if err != nil {
		clusterError(w, http.StatusInternalServerError, err)
		return
	}
	clusterJSON(w, http.StatusAccepted, c.Status())
}

func (co *Coordinator) handleList(w http.ResponseWriter, _ *http.Request) {
	statuses := co.Campaigns()
	for i := range statuses {
		statuses[i].Runs = nil // listings stay small; detail is one GET away
	}
	clusterJSON(w, http.StatusOK, map[string]any{"campaigns": statuses, "policy": co.Policy()})
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, err := co.Campaign(r.PathValue("id"))
	if err != nil {
		clusterError(w, http.StatusNotFound, err)
		return
	}
	clusterJSON(w, http.StatusOK, c.Status())
}

// handleEvents streams the campaign's events — protocol steps, run
// transitions, node events — as SSE, in the order the coordinator
// applied them. The stream opens with a status snapshot and closes after
// the campaign's terminal event.
func (co *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		clusterError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	events, cancel, err := co.Subscribe(r.PathValue("id"))
	if err != nil {
		clusterError(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				return // terminal campaign event delivered
			}
			writeEventSSE(w, ev)
			fl.Flush()
		}
	}
}

func writeEventSSE(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	_, _ = fmt.Fprintf(w, "data: %s\n\n", data)
}

// handleResult serves the merged canonical artifact, gated: 409 until
// the campaign is done. Merging mid-campaign would let the self-heal path
// synchronously execute runs still leased to workers, double-executing
// them inside the handler.
func (co *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	c, err := co.Campaign(r.PathValue("id"))
	if err != nil {
		clusterError(w, http.StatusNotFound, err)
		return
	}
	if !c.Status().Done {
		clusterError(w, http.StatusConflict, fmt.Errorf("campaign %q still running", c.ID()))
		return
	}
	data, err := co.MergedResult(c.ID())
	if err != nil {
		if errors.Is(err, ErrUnknownCampaign) {
			clusterError(w, http.StatusNotFound, err)
			return
		}
		clusterError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(data)
}

func (co *Coordinator) handleNodes(w http.ResponseWriter, _ *http.Request) {
	clusterJSON(w, http.StatusOK, map[string]any{"now": co.Now(), "nodes": co.Nodes()})
}

// joinRequest is the worker-facing request envelope for register,
// heartbeat, and claims.
type joinRequest struct {
	Node     string `json:"node"`
	Capacity int    `json:"capacity,omitempty"`
	Max      int    `json:"max,omitempty"`
}

func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := decodeBody(w, r, &req); err != nil || req.Node == "" {
		clusterError(w, http.StatusBadRequest, fmt.Errorf("register needs a node name"))
		return
	}
	co.RegisterNode(req.Node, req.Capacity)
	clusterJSON(w, http.StatusOK, map[string]any{"node": req.Node, "now": co.Now()})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := decodeBody(w, r, &req); err != nil || req.Node == "" {
		clusterError(w, http.StatusBadRequest, fmt.Errorf("heartbeat needs a node name"))
		return
	}
	if err := co.Heartbeat(req.Node); err != nil {
		clusterError(w, http.StatusNotFound, err)
		return
	}
	clusterJSON(w, http.StatusOK, map[string]any{"node": req.Node, "now": co.Now()})
}

func (co *Coordinator) handleClaims(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := decodeBody(w, r, &req); err != nil || req.Node == "" {
		clusterError(w, http.StatusBadRequest, fmt.Errorf("claims need a node name"))
		return
	}
	asgs, err := co.RequestWork(req.Node, req.Max)
	if err != nil {
		clusterError(w, http.StatusNotFound, err)
		return
	}
	clusterJSON(w, http.StatusOK, map[string]any{"assignments": asgs})
}

// completionWire is one lease's outcome inside a complete request.
type completionWire struct {
	Lease   campaign.LeaseID `json:"lease"`
	Outcome *Outcome         `json:"outcome"`
}

// leaseRequest is the worker-facing envelope for starts (Leases) and
// completes (Completes).
type leaseRequest struct {
	Node      string             `json:"node"`
	Leases    []campaign.LeaseID `json:"leases,omitempty"`
	Completes []completionWire   `json:"completes,omitempty"`
}

// leaseSlot is one lease's result inside a starts/complete reply. Stale marks campaign.ErrStaleLease rejections so clients can
// drop the assignment without string-matching.
type leaseSlot struct {
	Lease campaign.LeaseID `json:"lease"`
	Error string           `json:"error,omitempty"`
	Stale bool             `json:"stale,omitempty"`
}

func leaseSlots(ids []campaign.LeaseID, errs []error) []leaseSlot {
	slots := make([]leaseSlot, len(errs))
	for i, err := range errs {
		slots[i].Lease = ids[i]
		if err != nil {
			slots[i].Error = err.Error()
			slots[i].Stale = errors.Is(err, campaign.ErrStaleLease)
		}
	}
	return slots
}

func (co *Coordinator) handleStarts(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeBody(w, r, &req); err != nil || req.Node == "" || req.Leases == nil {
		clusterError(w, http.StatusBadRequest, fmt.Errorf("start needs a node name and leases"))
		return
	}
	errs := co.StartRuns(req.Node, req.Leases)
	clusterJSON(w, http.StatusOK, map[string]any{"results": leaseSlots(req.Leases, errs)})
}

func (co *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeBody(w, r, &req); err != nil || req.Node == "" || req.Completes == nil {
		clusterError(w, http.StatusBadRequest, fmt.Errorf("complete needs a node name and completes"))
		return
	}
	reports := make([]CompletionReport, len(req.Completes))
	ids := make([]campaign.LeaseID, len(req.Completes))
	for i, c := range req.Completes {
		if c.Outcome == nil {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("complete slot %d has no outcome", i))
			return
		}
		reports[i] = CompletionReport{Lease: c.Lease, Outcome: *c.Outcome}
		ids[i] = c.Lease
	}
	errs := co.CompleteRuns(req.Node, reports)
	clusterJSON(w, http.StatusOK, map[string]any{"results": leaseSlots(ids, errs)})
}

// Client is the worker side of the coordinator API: the Link of a joined
// worker process.
type Client struct {
	base string
	node string
	hc   *http.Client
}

// NewClient builds a worker client for the coordinator at base (e.g.
// "http://127.0.0.1:8383") identifying itself as node.
func NewClient(base, node string) *Client {
	return &Client{base: base, node: node, hc: &http.Client{}}
}

// post sends a JSON body and decodes a JSON reply.
func (c *Client) post(path string, body, reply any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer func() { _, _ = io.Copy(io.Discard, resp.Body); _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusNotFound {
			// The only 404 the worker verbs answer: this coordinator does
			// not know the node (it restarted since the node joined).
			return fmt.Errorf("%w: %w", ErrUnknownNode, err)
		}
		return err
	}
	if reply == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// Register joins the cluster with the given claim capacity.
func (c *Client) Register(capacity int) error {
	return c.post("/v1/cluster/register", joinRequest{Node: c.node, Capacity: capacity}, nil)
}

// Heartbeat refreshes liveness and extends this node's leases.
func (c *Client) Heartbeat() error {
	return c.post("/v1/cluster/heartbeat", joinRequest{Node: c.node}, nil)
}

// Claims requests up to max assignments.
func (c *Client) Claims(max int) ([]Assignment, error) {
	var reply struct {
		Assignments []Assignment `json:"assignments"`
	}
	if err := c.post("/v1/cluster/claims", joinRequest{Node: c.node, Max: max}, &reply); err != nil {
		return nil, err
	}
	return reply.Assignments, nil
}

// postLeases sends a starts or complete request and converts the reply's
// per-slot results back into errors aligned with the request's want
// slots, mapping stale slots to campaign.ErrStaleLease.
func (c *Client) postLeases(path string, req leaseRequest, want int) ([]error, error) {
	var reply struct {
		Results []leaseSlot `json:"results"`
	}
	if err := c.post(path, req, &reply); err != nil {
		return nil, err
	}
	if len(reply.Results) != want {
		return nil, fmt.Errorf("cluster: batched reply carries %d slots, want %d", len(reply.Results), want)
	}
	errs := make([]error, want)
	for i, s := range reply.Results {
		switch {
		case s.Stale:
			errs[i] = fmt.Errorf("%w: %s", campaign.ErrStaleLease, s.Error)
		case s.Error != "":
			errs[i] = errors.New(s.Error)
		}
	}
	return errs, nil
}

// StartBatch passes a whole batch of leases through the execution gate
// in one round-trip. The returned slice aligns with leases: a stale slot
// carries campaign.ErrStaleLease (drop that assignment without
// executing) and never poisons its siblings.
func (c *Client) StartBatch(leases []campaign.LeaseID) ([]error, error) {
	if len(leases) == 0 {
		return nil, nil
	}
	return c.postLeases("/v1/cluster/starts", leaseRequest{Node: c.node, Leases: leases}, len(leases))
}

// CompleteBatch reports a whole batch of outcomes in one round-trip.
// The returned slice aligns with reports: a slot carries
// campaign.ErrStaleLease when its lease expired mid-run, never started,
// or belongs to another node.
func (c *Client) CompleteBatch(reports []CompletionReport) ([]error, error) {
	if len(reports) == 0 {
		return nil, nil
	}
	completes := make([]completionWire, len(reports))
	for i := range reports {
		completes[i] = completionWire{Lease: reports[i].Lease, Outcome: &reports[i].Outcome}
	}
	return c.postLeases("/v1/cluster/complete", leaseRequest{Node: c.node, Completes: completes}, len(reports))
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/ipcp"
)

// This file proxies the durable job API across the fleet. The same
// correctness rule as /v1/analyze applies: the coordinator never
// rewrites a backend's answer.
//
//	POST   /v1/jobs             routed like an analysis — by the first
//	                            job's fingerprint through rendezvous
//	                            hashing, with failover — so a batch
//	                            lands whole on the backend whose memo
//	                            cache and dedupe table already know it.
//	GET    /v1/jobs?tenant=     fan-out: every backend's list, merged.
//	GET    /v1/jobs/{id}        owner map first, broadcast on a miss.
//	GET    /v1/jobs/{id}/result relayed byte-for-byte from the owner.
//	DELETE /v1/jobs/{id}        same owner/broadcast resolution.
//	GET    /v1/jobs/watch       coordinator-side NDJSON aggregation of
//	                            the fleet's job states.
//
// Job IDs carry a per-boot random instance tag (see internal/jobs),
// so an ID names exactly one job fleet-wide and the broadcast
// fallback cannot relay the wrong backend's job.

// ownerTTL bounds how long an idle owner entry is kept; backends
// retain terminal jobs for a bounded window too, so an older entry
// only shields a 404.
const ownerTTL = time.Hour

// ownerPruneLen is the map size past which inserts trigger a prune
// sweep; below it the map is too small to be worth scanning.
const ownerPruneLen = 4096

type ownerRec struct {
	b  *backend
	at time.Time
}

func (c *Coordinator) recordOwners(acks []jobs.Ack, b *backend) {
	c.ownerMu.Lock()
	defer c.ownerMu.Unlock()
	if len(c.owners) >= ownerPruneLen {
		cutoff := time.Now().Add(-ownerTTL)
		for id, rec := range c.owners {
			if rec.at.Before(cutoff) {
				delete(c.owners, id)
			}
		}
	}
	now := time.Now()
	for _, a := range acks {
		c.owners[a.ID] = ownerRec{b: b, at: now}
	}
}

func (c *Coordinator) owner(id string) *backend {
	c.ownerMu.Lock()
	defer c.ownerMu.Unlock()
	rec, ok := c.owners[id]
	if !ok {
		return nil
	}
	if time.Since(rec.at) > ownerTTL {
		delete(c.owners, id)
		return nil
	}
	return rec.b
}

// handleJobs serves POST (submit) and GET (list) on /v1/jobs.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		c.handleJobSubmit(w, r)
	case http.MethodGet:
		c.handleJobList(w, r)
	default:
		c.stats.badRequests.Add(1)
		w.Header().Set("Allow", "POST, GET")
		c.writeError(w, http.StatusMethodNotAllowed, "method", "POST or GET required", 0)
	}
}

// handleJobSubmit routes a batch to the backend the first job's
// fingerprint prefers and relays the ack verbatim. The whole batch
// goes to one backend: splitting it would scatter one client's jobs
// across WALs and turn a single poll loop into a scavenger hunt.
func (c *Coordinator) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	c.stats.jobSubmits.Add(1)
	if c.draining.Load() {
		c.stats.drainRejects.Add(1)
		c.writeError(w, http.StatusServiceUnavailable, "draining", "coordinator is draining", c.cfg.DrainTimeout)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), 0)
		return
	}
	var req serve.JobSubmitRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON body: "+err.Error(), 0)
		return
	}
	if len(req.Jobs) == 0 {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", "batch must contain at least one job", 0)
		return
	}
	jr := req.Jobs[0]
	cfg, err := jr.Config.ToIPCP()
	if err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	if jr.Filename == "" {
		jr.Filename = "request.f" // the backends' default, so keys agree
	}
	key := ipcp.Fingerprint(jr.Filename, jr.Source, cfg)

	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()
	out := c.proxy(ctx, w, rank(c.backends, key), "/v1/jobs", raw)
	if out != nil && out.code == http.StatusAccepted {
		var resp serve.JobSubmitResponse
		if json.Unmarshal(out.body, &resp) == nil {
			c.recordOwners(resp.Jobs, out.b)
		}
	}
}

// handleJobList merges every backend's retained jobs into one
// coordinator-rendered document. This is the one job endpoint whose
// body originates here rather than on a backend: it is an aggregate,
// so there is no single backend answer to relay.
func (c *Coordinator) handleJobList(w http.ResponseWriter, r *http.Request) {
	views := c.fanoutList(r.Context(), r.URL.Query().Get("tenant"))
	body, err := json.MarshalIndent(serve.JobListResponse{Jobs: views}, "", "  ")
	if err != nil {
		c.writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n'))
}

// fanoutList collects the fleet's job views; unreachable backends
// contribute nothing (their jobs reappear when they do).
func (c *Coordinator) fanoutList(ctx context.Context, tenant string) []jobs.JobView {
	views := make([]jobs.JobView, 0)
	seen := make(map[string]bool)
	path := "/v1/jobs"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	for _, b := range c.backends {
		code, _, body, err := c.forward(ctx, b, http.MethodGet, path, nil, c.jobLookupTimeout())
		if err != nil || code != http.StatusOK {
			continue
		}
		var resp serve.JobListResponse
		if json.Unmarshal(body, &resp) != nil {
			continue
		}
		for _, v := range resp.Jobs {
			if !seen[v.ID] {
				seen[v.ID] = true
				views = append(views, v)
			}
		}
	}
	return views
}

// handleJobByID resolves /v1/jobs/{id} and /v1/jobs/{id}/result to
// the backend that owns the job and relays its answer verbatim. The
// owner map is tried first; on a miss — or a 404 from a remembered
// owner whose retention already dropped the job — every backend is
// asked in turn. Any non-404 response is authoritative: only the
// backend holding the job's WAL record can answer about it.
func (c *Coordinator) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	switch {
	case id == "":
		c.writeError(w, http.StatusNotFound, "not-found", "missing job id", 0)
		return
	case sub == "" && (r.Method == http.MethodGet || r.Method == http.MethodDelete):
	case sub == "result" && r.Method == http.MethodGet:
	default:
		c.stats.badRequests.Add(1)
		w.Header().Set("Allow", "GET, DELETE")
		c.writeError(w, http.StatusMethodNotAllowed, "method", "GET or DELETE required", 0)
		return
	}
	c.stats.jobLookups.Add(1)
	path := "/v1/jobs/" + id
	if sub != "" {
		path += "/" + sub
	}

	tried := make(map[*backend]bool)
	if b := c.owner(id); b != nil {
		tried[b] = true
		if code, hdr, body, err := c.forward(r.Context(), b, r.Method, path, nil, c.jobLookupTimeout()); err == nil && code != http.StatusNotFound {
			writeProxied(w, code, hdr, body)
			return
		}
	}
	c.stats.jobBroadcasts.Add(1)
	reachable := 0
	for _, b := range c.backends {
		if tried[b] {
			continue
		}
		code, hdr, body, err := c.forward(r.Context(), b, r.Method, path, nil, c.jobLookupTimeout())
		if err != nil {
			continue
		}
		reachable++
		if code == http.StatusNotFound {
			continue
		}
		c.recordOwners([]jobs.Ack{{ID: id}}, b)
		writeProxied(w, code, hdr, body)
		return
	}
	if reachable == 0 && len(tried) == 0 {
		c.writeUnavailable(w, "no backend reachable to resolve job "+id, 0, "")
		return
	}
	c.writeError(w, http.StatusNotFound, "not-found", "unknown job "+id, 0)
}

// handleJobsWatch streams the fleet's job state changes as NDJSON by
// polling the merged list — the aggregate of several backends has no
// single stream to relay. Lines are compact jobs.JobView documents,
// exactly like a single backend's watch.
func (c *Coordinator) handleJobsWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.stats.badRequests.Add(1)
		w.Header().Set("Allow", http.MethodGet)
		c.writeError(w, http.StatusMethodNotAllowed, "method", "GET required", 0)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		c.writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported", 0)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sent := make(map[string]jobs.State)
	for {
		views := c.fanoutList(r.Context(), tenant)
		allTerminal := len(views) > 0
		for _, v := range views {
			if sent[v.ID] != v.State {
				line, err := json.Marshal(v)
				if err != nil {
					continue
				}
				if _, err := w.Write(append(line, '\n')); err != nil {
					return
				}
				sent[v.ID] = v.State
			}
			if !v.State.Terminal() {
				allTerminal = false
			}
		}
		fl.Flush()
		if allTerminal || len(views) == 0 {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(300 * time.Millisecond):
		}
	}
}

// forward sends one job- or session-API request to one backend. These
// sit outside the failover ladder and carry no breaker verdict (the
// breaker protects the analysis path's attempt budget): a job lookup's
// transport error just moves its broadcast to the next backend, and a
// session lives on exactly one backend, so there is nothing to fail
// over to. Job lookups get the short lookup timeout; a session edit
// runs a real (incremental) analysis and gets the full request budget.
// A nil body sends no body.
func (c *Coordinator) forward(ctx context.Context, b *backend, method, path string, body []byte, timeout time.Duration) (int, http.Header, []byte, error) {
	fctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(fctx, method, b.url+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

func (c *Coordinator) jobLookupTimeout() time.Duration {
	if d := c.cfg.RequestTimeout / 4; d < 2*time.Second {
		return d
	}
	return 2 * time.Second
}

// writeProxied relays one backend response byte-for-byte, preserving
// the headers that carry semantics (Content-Type, Retry-After).
func writeProxied(w http.ResponseWriter, code int, hdr http.Header, body []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

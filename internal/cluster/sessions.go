package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/ipcp"
)

// This file gives sessions affinity across the fleet. A session is
// memory resident on exactly one backend — the parsed world, jump
// functions, and value-context store it reuses across edits live in
// that process and nowhere else — so unlike /v1/analyze there is no
// failover for an existing session: every edit and result fetch must
// reach the owner.
//
//	POST   /v1/sessions                routed like an analysis — by the
//	                                   program's fingerprint through
//	                                   rendezvous hashing, with failover
//	                                   while nothing is resident yet —
//	                                   and the winning backend recorded
//	                                   as the session's owner.
//	POST   /v1/sessions/{id}/edit      owner map first, broadcast on a
//	GET    /v1/sessions/{id}/result    miss; relayed verbatim.
//	DELETE /v1/sessions/{id}           same owner/broadcast resolution.
//
// Session IDs carry a per-boot random instance tag (see
// internal/serve), so an ID names at most one live session fleet-wide
// and the broadcast fallback cannot relay the wrong backend's session.
// The owner map is memory-only, exactly like the job owner map: after
// a coordinator restart the first lookup broadcasts and re-learns.
//
// Failure semantics are deliberately asymmetric:
//
//   - The owner answers 404: the session is authoritatively gone
//     (evicted, expired, or the backend rebooted and lost its memory).
//     The coordinator answers 404; the client's recovery is to re-open,
//     which routes to a live backend and rebuilds from the full text.
//   - The owner is unreachable and no other backend claims the ID: the
//     coordinator answers a retryable 503 — it cannot distinguish a
//     network blip (the session may still be resident) from a crash
//     (it is not), and a premature 404 would make the client discard a
//     session that may come back.

// handleSessions serves POST /v1/sessions: route the open by the
// program's fingerprint so a re-opened session lands on the backend
// whose memo and result caches already know the program.
func (c *Coordinator) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		c.stats.badRequests.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		c.writeError(w, http.StatusMethodNotAllowed, "method", "POST required", 0)
		return
	}
	c.stats.sessionOpens.Add(1)
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
	var req serve.OpenSessionRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON body: "+err.Error(), 0)
		return
	}
	cfg, err := req.Config.ToIPCP()
	if err != nil {
		c.stats.badRequests.Add(1)
		c.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	if req.Filename == "" {
		req.Filename = "request.f" // the backends' default, so keys agree
	}
	key := ipcp.Fingerprint(req.Filename, req.Source, cfg)

	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()
	out := c.proxy(ctx, w, rank(c.backends, key), "/v1/sessions", raw)
	if out != nil && out.code == http.StatusOK {
		var resp serve.OpenSessionResponse
		if json.Unmarshal(out.body, &resp) == nil && resp.ID != "" {
			c.recordOwners([]jobs.Ack{{ID: resp.ID}}, out.b)
		}
	}
}

// handleSessionByID resolves /v1/sessions/{id}[/edit|/result] to the
// owning backend and relays its answer verbatim.
func (c *Coordinator) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	id, sub, _ := strings.Cut(rest, "/")
	switch {
	case id == "":
		c.writeError(w, http.StatusNotFound, "not-found", "missing session id", 0)
		return
	case sub == "" && r.Method == http.MethodDelete:
	case sub == "edit" && r.Method == http.MethodPost:
	case sub == "result" && r.Method == http.MethodGet:
	default:
		c.stats.badRequests.Add(1)
		w.Header().Set("Allow", "GET, POST, DELETE")
		c.writeError(w, http.StatusMethodNotAllowed, "method", "POST /edit, GET /result, or DELETE required", 0)
		return
	}
	c.stats.sessionLookups.Add(1)
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
		if err != nil {
			c.stats.badRequests.Add(1)
			c.writeError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), 0)
			return
		}
	}
	path := "/v1/sessions/" + id
	if sub != "" {
		path += "/" + sub
	}

	ownerDown := false
	tried := make(map[*backend]bool)
	if b := c.owner(id); b != nil {
		tried[b] = true
		code, hdr, respBody, err := c.forward(r.Context(), b, r.Method, path, body, c.cfg.RequestTimeout)
		switch {
		case err == nil && code != http.StatusNotFound:
			writeProxied(w, code, hdr, respBody)
			return
		case err == nil:
			// The owner is reachable and does not have the session: it is
			// authoritatively gone (evicted, expired, or lost to a reboot).
			// No other backend can have it — IDs are fleet-unique — so
			// answer 404 now; the client re-opens.
			c.writeError(w, http.StatusNotFound, "not-found", "unknown session "+id, 0)
			return
		default:
			ownerDown = true
		}
	}
	c.stats.sessionBroadcasts.Add(1)
	reachable := 0
	for _, b := range c.backends {
		if tried[b] {
			continue
		}
		code, hdr, respBody, err := c.forward(r.Context(), b, r.Method, path, body, c.cfg.RequestTimeout)
		if err != nil {
			continue
		}
		reachable++
		if code == http.StatusNotFound {
			continue
		}
		c.recordOwners([]jobs.Ack{{ID: id}}, b)
		writeProxied(w, code, hdr, respBody)
		return
	}
	if ownerDown {
		// The one backend that may hold the session did not answer, and
		// nobody else claims it. Retryable: the owner may be back (with
		// the session intact) in a moment, or come back empty — in which
		// case the retry gets the authoritative 404 above.
		c.writeUnavailable(w, "session owner unreachable for "+id, 0, "")
		return
	}
	if reachable == 0 {
		c.writeUnavailable(w, "no backend reachable to resolve session "+id, 0, "")
		return
	}
	c.writeError(w, http.StatusNotFound, "not-found", "unknown session "+id, 0)
}

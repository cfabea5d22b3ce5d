package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const sessionSrc = `PROGRAM MAIN
CALL TOP(8, 3)
CALL OTHER(5)
END

SUBROUTINE TOP(N, M)
INTEGER N, M
CALL LEAF(N, M)
END

SUBROUTINE LEAF(N, M)
INTEGER N, M
PRINT *, N + M
END

SUBROUTINE OTHER(K)
INTEGER K
PRINT *, K * 2
END
`

func doJSON(t *testing.T, s *Server, method, path string, reqBody interface{}) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if reqBody != nil {
		b, err := json.Marshal(reqBody)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	r := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func openSession(t *testing.T, s *Server, src string) OpenSessionResponse {
	t.Helper()
	code, body := doJSON(t, s, http.MethodPost, "/v1/sessions", OpenSessionRequest{
		Filename: "prog.f", Source: src, Want: RequestWant{Transformed: true},
	})
	if code != http.StatusOK {
		t.Fatalf("open: %d %s", code, body)
	}
	var resp OpenSessionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("open body: %v\n%s", err, body)
	}
	return resp
}

func editSession(t *testing.T, s *Server, id string, edits []map[string]interface{}) (int, SessionEditResponse, []byte) {
	t.Helper()
	code, body := doJSON(t, s, http.MethodPost, "/v1/sessions/"+id+"/edit", map[string]interface{}{"edits": edits})
	var resp SessionEditResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("edit body: %v\n%s", err, body)
		}
	}
	return code, resp, body
}

func sessionResult(t *testing.T, s *Server, id string) (int, []byte) {
	t.Helper()
	return doJSON(t, s, http.MethodGet, "/v1/sessions/"+id+"/result", nil)
}

// TestSessionLifecycle: open → edit → result, with the result body
// byte-identical to a cold POST /v1/analyze of the edited text.
func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(Config{AnalysisCacheBytes: -1, ResultCacheBytes: -1})
	open := openSession(t, s, sessionSrc)
	if open.Units != 4 {
		t.Fatalf("open units = %d, want 4", open.Units)
	}

	leaf := "SUBROUTINE LEAF(N, M)\nINTEGER N, M\nPRINT *, N * M\nEND\n\n"
	code, edit, body := editSession(t, s, open.ID, []map[string]interface{}{
		{"op": "replace", "index": 2, "text": leaf},
	})
	if code != http.StatusOK {
		t.Fatalf("edit: %d %s", code, body)
	}
	if !edit.Info.FastPath || edit.Info.UnitsInvalidated != 3 {
		t.Fatalf("edit info: %+v", edit.Info)
	}

	code, got := sessionResult(t, s, open.ID)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, got)
	}
	edited := strings.Replace(sessionSrc, "PRINT *, N + M", "PRINT *, N * M", 1)
	coldCode, _, cold := postAnalyze(t, s, AnalyzeRequest{
		Filename: "prog.f", Source: edited, Want: RequestWant{Transformed: true},
	})
	if coldCode != http.StatusOK {
		t.Fatalf("cold analyze: %d %s", coldCode, cold)
	}
	if !bytes.Equal(got, cold) {
		t.Fatalf("session result != cold analyze body\nsession: %s\ncold:    %s", got, cold)
	}

	// /statsz carries the sessions block with nonzero reuse.
	snap := s.Stats()
	if snap.Sessions == nil {
		t.Fatal("no sessions block in stats")
	}
	sc := snap.Sessions
	if sc.Active != 1 || sc.FastEdits != 1 || sc.JumpReused == 0 || sc.UnitsInvalidated != 3 || sc.DeltaBytes != int64(len(leaf)) {
		t.Fatalf("session counters: %+v", sc)
	}
	if len(sc.PerSession) != 1 || sc.PerSession[open.ID].Edits != 1 {
		t.Fatalf("per-session stats: %+v", sc.PerSession)
	}

	// Close; the id is gone.
	if code, body := doJSON(t, s, http.MethodDelete, "/v1/sessions/"+open.ID, nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, _ := sessionResult(t, s, open.ID); code != http.StatusNotFound {
		t.Fatalf("result after close: %d, want 404", code)
	}
}

// TestSessionErrors: invalid configs, bad edits, broken programs, and
// unknown ids map onto the service's error contract.
func TestSessionErrors(t *testing.T) {
	s := newTestServer(Config{})

	// Open of a program with diagnostics: 422, no session created.
	code, body := doJSON(t, s, http.MethodPost, "/v1/sessions", OpenSessionRequest{
		Filename: "bad.f", Source: "GIBBERISH",
	})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("broken open: %d %s", code, body)
	}
	if snap := s.Stats(); snap.Sessions.OpenFailures != 1 || snap.Sessions.Active != 0 {
		t.Fatalf("open-failure counters: %+v", snap.Sessions)
	}

	open := openSession(t, s, sessionSrc)

	// Out-of-range index: 400, session untouched.
	if code, _, body := editSession(t, s, open.ID, []map[string]interface{}{
		{"op": "replace", "index": 42, "text": "X"},
	}); code != http.StatusBadRequest {
		t.Fatalf("bad index: %d %s", code, body)
	}

	// An edit that breaks the program: 422, session enters error state...
	if code, _, body := editSession(t, s, open.ID, []map[string]interface{}{
		{"op": "replace", "index": 2, "text": "SUBROUTINE LEAF(N\nEND\n"},
	}); code != http.StatusUnprocessableEntity {
		t.Fatalf("breaking edit: %d %s", code, body)
	}
	if code, body := sessionResult(t, s, open.ID); code != http.StatusUnprocessableEntity {
		t.Fatalf("result in error state: %d %s", code, body)
	}
	// ...and a repair edit brings it back.
	leaf := "SUBROUTINE LEAF(N, M)\nINTEGER N, M\nPRINT *, N - M\nEND\n\n"
	if code, _, body := editSession(t, s, open.ID, []map[string]interface{}{
		{"op": "replace", "index": 2, "text": leaf},
	}); code != http.StatusOK {
		t.Fatalf("repair edit: %d %s", code, body)
	}
	if code, body := sessionResult(t, s, open.ID); code != http.StatusOK {
		t.Fatalf("result after repair: %d %s", code, body)
	}

	// Unknown session id.
	if code, _ := sessionResult(t, s, "s-999"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", code)
	}
}

// TestSessionEviction: the LRU count limit, the byte budget, and the
// TTL each evict with their own counter.
func TestSessionEviction(t *testing.T) {
	s := newTestServer(Config{SessionLimit: 2})
	a := openSession(t, s, sessionSrc)
	b := openSession(t, s, sessionSrc)
	// Touch a so b is the LRU victim when c arrives.
	if code, _ := sessionResult(t, s, a.ID); code != http.StatusOK {
		t.Fatal("touch a")
	}
	c := openSession(t, s, sessionSrc)
	snap := s.Stats()
	if snap.Sessions.Active != 2 || snap.Sessions.EvictedLRU != 1 {
		t.Fatalf("after LRU eviction: %+v", snap.Sessions)
	}
	if code, _ := sessionResult(t, s, b.ID); code != http.StatusNotFound {
		t.Fatal("LRU victim still resident")
	}
	for _, id := range []string{a.ID, c.ID} {
		if code, _ := sessionResult(t, s, id); code != http.StatusOK {
			t.Fatalf("survivor %s gone", id)
		}
	}

	// Byte budget: a tiny budget evicts the older session on open.
	s2 := newTestServer(Config{SessionLimit: 8, SessionBytes: 1})
	d := openSession(t, s2, sessionSrc)
	openSession(t, s2, sessionSrc)
	snap2 := s2.Stats()
	if snap2.Sessions.EvictedBytes != 1 || snap2.Sessions.Active != 1 {
		t.Fatalf("after byte eviction: %+v", snap2.Sessions)
	}
	if code, _ := sessionResult(t, s2, d.ID); code != http.StatusNotFound {
		t.Fatal("byte-budget victim still resident")
	}

	// TTL: an idle session expires.
	s3 := newTestServer(Config{SessionTTL: time.Nanosecond})
	e := openSession(t, s3, sessionSrc)
	time.Sleep(2 * time.Millisecond)
	if code, _ := sessionResult(t, s3, e.ID); code != http.StatusNotFound {
		t.Fatal("expired session still resident")
	}
	if snap3 := s3.Stats(); snap3.Sessions.ExpiredTTL != 1 {
		t.Fatalf("TTL counters: %+v", snap3.Sessions)
	}
}

// TestSessionAPIDisabled: SessionLimit < 0 turns the endpoints into
// 404s.
func TestSessionAPIDisabled(t *testing.T) {
	s := newTestServer(Config{SessionLimit: -1})
	code, _ := doJSON(t, s, http.MethodPost, "/v1/sessions", OpenSessionRequest{Source: sessionSrc})
	if code != http.StatusNotFound {
		t.Fatalf("open on disabled API: %d, want 404", code)
	}
	if code, _ := sessionResult(t, s, "s-1"); code != http.StatusNotFound {
		t.Fatalf("result on disabled API: %d, want 404", code)
	}
	if snap := s.Stats(); snap.Sessions != nil {
		t.Fatal("sessions block present with API disabled")
	}
}

// TestSessionContextReuseAcrossEdits: repeated one-unit edits keep
// reusing value contexts; the counters in /statsz prove it (this is
// the assertion the CI sessions-smoke job makes over HTTP). The LEAF
// edits change no forward jump function, so each keeps the solution;
// the last edit changes MAIN's call of TOP, so the program is solved
// again and OTHER, whose incoming row holds, replays its step.
func TestSessionContextReuseAcrossEdits(t *testing.T) {
	s := newTestServer(Config{})
	open := openSession(t, s, sessionSrc)
	for i := 0; i < 4; i++ {
		delta := map[string]interface{}{"op": "replace", "index": 2,
			"text": fmt.Sprintf("SUBROUTINE LEAF(N, M)\nINTEGER N, M\nPRINT *, N + M + %d\nEND\n\n", i)}
		if i == 3 {
			delta = map[string]interface{}{"op": "replace", "index": 0,
				"text": "PROGRAM MAIN\nCALL TOP(9, 3)\nCALL OTHER(5)\nEND\n\n"}
		}
		code, edit, body := editSession(t, s, open.ID, []map[string]interface{}{delta})
		if code != http.StatusOK {
			t.Fatalf("edit %d: %d %s", i, code, body)
		}
		if !edit.Info.FastPath {
			t.Fatalf("edit %d took the slow path", i)
		}
	}
	snap := s.Stats()
	if snap.Sessions.ContextsReused == 0 {
		t.Fatalf("no value-context reuse across edits: %+v", snap.Sessions)
	}
	if ps := snap.Sessions.PerSession[open.ID]; ps.ContextHits == 0 {
		t.Fatalf("per-session context hits zero: %+v", ps)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

const domainSrc = `PROGRAM MAIN
CALL S(3)
CALL S(7)
END
SUBROUTINE S(N)
INTEGER N
PRINT *, N
END
`

// TestAnalyzeDomainSelector: each registered non-constant domain is
// reachable over /v1/analyze, surfaces its facts, and names itself in
// the served-configuration string.
func TestAnalyzeDomainSelector(t *testing.T) {
	s := newTestServer(Config{})
	wantFact := map[string]string{
		"interval":   "[3,7]",
		"parity":     "odd",
		"taint":      "clean",
		"cond-const": "",
	}
	for dom, want := range wantFact {
		code, _, body := postAnalyze(t, s, AnalyzeRequest{
			Source: domainSrc,
			Config: RequestConfig{Domain: dom},
		})
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", dom, code, body)
		}
		resp := decodeResult(t, body)
		if resp.Domain != dom {
			t.Errorf("%s: response domain = %q", dom, resp.Domain)
		}
		var got string
		for _, f := range resp.Facts["S"] {
			if f.Name == "N" {
				got = f.Value
			}
		}
		if got != want {
			t.Errorf("%s: S.N fact = %q, want %q", dom, got, want)
		}
	}
}

// TestAnalyzeDomainConstOmitted: the default constant domain keeps the
// pre-domain wire shape — no domain or facts keys at all.
func TestAnalyzeDomainConstOmitted(t *testing.T) {
	s := newTestServer(Config{})
	for _, dom := range []string{"", "const"} {
		code, _, body := postAnalyze(t, s, AnalyzeRequest{
			Source: domainSrc,
			Config: RequestConfig{Domain: dom},
		})
		if code != http.StatusOK {
			t.Fatalf("%q: status = %d", dom, code)
		}
		for _, key := range []string{`"domain"`, `"facts"`} {
			if bytes.Contains(body, []byte(key)) {
				t.Errorf("%q: const response contains %s:\n%s", dom, key, body)
			}
		}
	}
}

// TestAnalyzeUnknownDomainRejected: a typo'd domain is a 400 naming the
// available ones, not a silent fall-back to constants.
func TestAnalyzeUnknownDomainRejected(t *testing.T) {
	s := newTestServer(Config{})
	code, _, body := postAnalyze(t, s, AnalyzeRequest{
		Source: domainSrc,
		Config: RequestConfig{Domain: "octagon"},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", code, body)
	}
	if e := decodeError(t, body); e.Class != "bad-request" {
		t.Errorf("error class = %q, want bad-request", e.Class)
	}
}

// TestDomainResultCacheKeyed: the result cache must not serve an
// interval response for a const request (or vice versa).
func TestDomainResultCacheKeyed(t *testing.T) {
	s := newTestServer(Config{ResultCacheBytes: 1 << 20})
	_, _, first := postAnalyze(t, s, AnalyzeRequest{Source: domainSrc})
	_, _, second := postAnalyze(t, s, AnalyzeRequest{
		Source: domainSrc,
		Config: RequestConfig{Domain: "interval"},
	})
	if string(first) == string(second) {
		t.Fatal("interval response identical to const response — cache key ignores domain")
	}
	if resp := decodeResult(t, second); resp.Domain != "interval" {
		t.Errorf("second response domain = %q, want interval", resp.Domain)
	}
}

// TestSessionDomainFacts: a session opened under a non-constant domain
// renders its facts through the same path as /v1/analyze.
func TestSessionDomainFacts(t *testing.T) {
	s := newTestServer(Config{})
	code, body := doJSON(t, s, http.MethodPost, "/v1/sessions", OpenSessionRequest{
		Filename: "prog.f", Source: domainSrc,
		Config: RequestConfig{Domain: "interval"},
	})
	if code != http.StatusOK {
		t.Fatalf("open: %d %s", code, body)
	}
	var open OpenSessionResponse
	if err := json.Unmarshal(body, &open); err != nil {
		t.Fatal(err)
	}
	code, body = doJSON(t, s, http.MethodGet, "/v1/sessions/"+open.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	resp := decodeResult(t, body)
	if resp.Domain != "interval" {
		t.Errorf("session result domain = %q, want interval", resp.Domain)
	}
	var got string
	for _, f := range resp.Facts["S"] {
		if f.Name == "N" {
			got = f.Value
		}
	}
	if got != "[3,7]" {
		t.Errorf("session S.N fact = %q, want [3,7]", got)
	}
}

// condConstSrc is the paper's Table 3 shape: the else arm of S is dead
// once N = 1 reaches it, which only the pruning rounds see.
const condConstSrc = `PROGRAM MAIN
INTEGER N
N = 1
CALL S(N)
END
SUBROUTINE S(K)
INTEGER K, M
IF (K .EQ. 1) THEN
  M = 5
ELSE
  M = 6
ENDIF
CALL T(M)
END
SUBROUTINE T(J)
INTEGER J
PRINT *, J
END
`

// TestCondConstLadderDropsPruning: the cond-const domain is the const
// domain with complete propagation forced on, so the retry ladder's
// first rung must drop the pruning rounds exactly as it drops
// Config.Complete, whether or not the request also sets it. Under a
// solver-step budget the pruning loop cannot meet, the degraded
// response is byte-identical to the one for the same request in the
// const domain with "complete": true.
func TestCondConstLadderDropsPruning(t *testing.T) {
	for steps := 2; steps <= 5; steps++ {
		post := func(rc RequestConfig) (int, []byte) {
			rc.MaxSolverSteps = steps
			code, _, body := postAnalyze(t, newTestServer(Config{}), AnalyzeRequest{Source: condConstSrc, Config: rc})
			return code, body
		}
		compCode, comp := post(RequestConfig{Complete: true})
		if compCode != http.StatusOK {
			t.Fatalf("steps %d: complete %d %s", steps, compCode, comp)
		}
		for _, rc := range []RequestConfig{{Domain: "cond-const"}, {Domain: "cond-const", Complete: true}} {
			if code, body := post(rc); code != compCode || !bytes.Equal(body, comp) {
				t.Errorf("steps %d, %s complete=%v: %d %s\nwant the complete response %s", steps, rc.Domain, rc.Complete, code, body, comp)
			}
		}
	}
}

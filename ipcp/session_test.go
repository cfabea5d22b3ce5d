package ipcp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memo"
)

const sessionTestSrc = `PROGRAM MAIN
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

// resultKey flattens everything a Result surfaces that cold/session
// equivalence is stated over.
func resultKey(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "subst=%d|", r.SubstitutionCount())
	for _, p := range r.Procedures() {
		for _, c := range r.ConstantsOf(p) {
			fmt.Fprintf(&b, "%s:%s ref=%t;", p, c, c.Referenced)
		}
	}
	fmt.Fprintf(&b, "|warn=%v|", r.Warnings)
	b.WriteString(r.TransformedSource())
	return b.String()
}

// TestSessionPublicAPI drives the public session surface end to end:
// open, fast edit, result equivalence with a cold Analyze of the edited
// text, stats, fingerprint affinity, and edit validation.
func TestSessionPublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	s, err := OpenSession(context.Background(), "prog.f", sessionTestSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(sessionTestSrc, "PRINT *, N + M", "PRINT *, N * M", 1)
	leaf := strings.Replace("SUBROUTINE LEAF(N, M)\nINTEGER N, M\nPRINT *, N + M\nEND\n\n", "N + M", "N * M", 1)
	info, err := s.Edit(context.Background(), []UnitEdit{{Op: "replace", Index: 2, Text: leaf}})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FastPath || info.Units != 4 {
		t.Fatalf("edit info: %+v", info)
	}
	if got := s.Source(); got != edited {
		t.Fatalf("Source() does not match edited text:\n%q\nwant\n%q", got, edited)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Analyze("prog.f", edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultKey(res), resultKey(cold); got != want {
		t.Fatalf("session result != cold result\ngot  %q\nwant %q", got, want)
	}
	if got, want := s.Fingerprint(), Fingerprint("prog.f", edited, cfg); got != want {
		t.Fatalf("Fingerprint() = %q, want cold fingerprint %q", got, want)
	}
	if st := s.Stats(); st.FastEdits != 1 || st.FullRebuilds != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Validation errors wrap ErrBadEdit and leave the session untouched.
	if _, err := s.Edit(context.Background(), []UnitEdit{{Op: "replace", Index: 42, Text: "X"}}); !errors.Is(err, ErrBadEdit) {
		t.Fatalf("out-of-range edit error = %v, want ErrBadEdit", err)
	}
	if _, err := s.Edit(context.Background(), []UnitEdit{{Op: "mangle", Index: 0, Text: "X"}}); !errors.Is(err, ErrBadEdit) {
		t.Fatalf("unknown-op edit error = %v, want ErrBadEdit", err)
	}
	if got := s.Source(); got != edited {
		t.Fatal("failed edits mutated the session")
	}

	// Inputs a cold Analyze rejects fail the open the same way.
	if _, err := OpenSession(context.Background(), "bad.f", "GIBBERISH", cfg); err == nil {
		t.Fatal("open of invalid program succeeded")
	}
}

// emptyUnitSrc is a one-unit program with one substitutable use.
const emptyUnitSrc = "PROGRAM MAIN\nINTEGER K\nK = 3\nPRINT *, K\nEND\n"

// TestSessionEmptyUnitText replaces the only unit with an empty text.
// The session must then agree with a cold analysis of the empty text,
// which has no procedures, instead of analyzing the old unit.
func TestSessionEmptyUnitText(t *testing.T) {
	cfg := DefaultConfig()
	s, err := OpenSession(context.Background(), "prog.f", emptyUnitSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Edit(context.Background(), []UnitEdit{{Op: "replace", Index: 0, Text: ""}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Analyze("prog.f", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Procedures()) != 0 {
		t.Fatalf("a cold analysis of no text found procedures %v", cold.Procedures())
	}
	if got, want := resultKey(res), resultKey(cold); got != want || s.Source() != "" {
		t.Fatalf("session result != cold result\ngot  %q\nwant %q", got, want)
	}
}

// FuzzSessionDelta: any edit sequence applied to a session, followed by
// analysis, must be byte-identical to a cold analysis of the final
// text — including agreeing on whether the final text is analyzable at
// all. Seeded from the core corpus plus hand-made delta scripts.
//
// Run the corpus with `go test`; explore with
// `go test -fuzz FuzzSessionDelta ./ipcp`.
func FuzzSessionDelta(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "internal", "core", "testdata", "*.f"))
	if len(seeds) == 0 {
		f.Fatal("no seed corpus under ../internal/core/testdata")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint8(0), uint8(1), "SUBROUTINE Q(A)\nINTEGER A\nPRINT *, A\nEND\n", uint8(1), uint8(2), "\nSUBROUTINE R(B)\nINTEGER B\nPRINT *, B + 1\nEND\n")
	}
	// Edits that put a side effect into LEAF and take it out again, so a
	// stale MOD/REF summary would change its callers' constants.
	effects, err := os.ReadFile(filepath.Join("..", "internal", "session", "testdata", "effects.f"))
	if err != nil {
		f.Fatal(err)
	}
	chunks, ok := memo.Split("effects.f", string(effects))
	if !ok || len(chunks) != 4 {
		f.Fatal("effects.f does not split into 4 units")
	}
	leaf := chunks[2].Text
	stmts := []string{"N = 11", "G = 12", "PRINT *, G", "CALL OTHER(M)"}
	for i, stmt := range stmts {
		with := strings.Replace(leaf, "CONTINUE", stmt, 1)
		next := strings.Replace(leaf, "CONTINUE", stmts[(i+1)%len(stmts)], 1)
		f.Add(string(effects), uint8(0), uint8(2), with, uint8(0), uint8(2), leaf)
		f.Add(string(effects), uint8(0), uint8(2), with, uint8(0), uint8(2), next)
	}
	f.Add(sessionTestSrc, uint8(0), uint8(2), "SUBROUTINE LEAF(N, M)\nINTEGER N, M\nPRINT *, N - M\nEND\n\n", uint8(2), uint8(3), "")
	f.Add(sessionTestSrc, uint8(0), uint8(0), "PROGRAM MAIN\nCALL TOP(1, 2)\nEND\n\n", uint8(0), uint8(2), "oops(")
	f.Add(emptyUnitSrc, uint8(0), uint8(0), "", uint8(0), uint8(0), "")
	f.Fuzz(func(t *testing.T, src string, op1, idx1 uint8, text1 string, op2, idx2 uint8, text2 string) {
		cfg := DefaultConfig()
		noInternal := func(err error) {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("internal error (escaped panic) in %s: %v\n%s", ie.Phase, ie.Value, ie.Stack)
			}
		}
		s, err := OpenSession(context.Background(), "fuzz.f", src, cfg)
		if err != nil {
			noInternal(err)
			return // base program rejected; nothing resident to edit
		}
		ops := []string{"replace", "add", "delete"}
		for _, e := range []UnitEdit{
			{Op: ops[int(op1)%3], Index: int(idx1) % (s.NumUnits() + 1), Text: text1},
			{Op: ops[int(op2)%3], Index: int(idx2) % (s.NumUnits() + 1), Text: text2},
		} {
			if _, err := s.Edit(context.Background(), []UnitEdit{e}); err != nil {
				noInternal(err)
			}
		}
		final := s.Source()
		res, serr := s.Result()
		cold, cerr := Analyze("fuzz.f", final, cfg)
		noInternal(serr)
		noInternal(cerr)
		if (serr != nil) != (cerr != nil) {
			t.Fatalf("error divergence: session=%v cold=%v\nfinal text:\n%s", serr, cerr, final)
		}
		if serr != nil {
			return
		}
		if got, want := resultKey(res), resultKey(cold); got != want {
			t.Fatalf("session diverged from cold analysis of final text\ngot  %q\nwant %q\nfinal text:\n%s", got, want, final)
		}
	})
}

package ipcp

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAnalyze: the full pipeline must never report an internal error
// (i.e. an escaped panic) on arbitrary input — malformed programs are
// rejected with diagnostics, accepted ones analyze to completion, and
// the transformed source of an accepted program is itself accepted.
// Seeded from the core analysis corpus (internal/core/testdata/*.f) and
// two programs whose transformed text once failed to parse: a
// substituted minimum int64, and blank COMMON.
//
// Run the corpus with `go test`; explore with `go test -fuzz FuzzAnalyze`.
func FuzzAnalyze(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "internal", "core", "testdata", "*.f"))
	if len(seeds) == 0 {
		f.Fatal("no seed corpus under ../internal/core/testdata")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("PROGRAM MAIN\nINTEGER K\nK = 9223372036854775807\nCALL S(K)\nEND\n" +
		"SUBROUTINE S(N)\nINTEGER N, M\nM = N + 1\nPRINT *, M\nEND\n")
	f.Add("PROGRAM MAIN\nINTEGER G\nCOMMON G\nG = 3\nCALL S\nEND\n" +
		"SUBROUTINE S\nINTEGER G\nCOMMON G\nPRINT *, G\nEND\n")
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Analyze("fuzz.f", src, DefaultConfig())
		if err != nil {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("internal error (escaped panic) in %s: %v\n%s", ie.Phase, ie.Value, ie.Stack)
			}
			return // ordinary front-end rejection
		}
		// Exercise the Result surface over whatever was accepted.
		_ = res.SubstitutionCount()
		_ = res.Constants()
		out := res.TransformedSource()
		if _, err := Analyze("transformed.f", out, DefaultConfig()); err != nil {
			t.Fatalf("transformed source rejected: %v\n%s", err, out)
		}
	})
}

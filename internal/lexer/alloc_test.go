package lexer

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/source"
	"repro/internal/suite"
)

// TestTokenizeSizesSliceOnce: Tokenize reserves its token slice from
// the measured source density, so it allocates at most 1.5x the bytes
// its final tokens occupy (a regrown slice costs more than 2x) on every
// suite program and on a 256-procedure generated program. A text padded
// with leading blank lines, as a unit parsed alone is, reserves for its
// tokens only.
func TestTokenizeSizesSliceOnce(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	for _, sp := range suite.Programs() {
		progs = append(progs, prog{sp.Name, suite.Source(sp)})
	}
	progs = append(progs, prog{"gen256", gen.Program(gen.Config{Seed: 1, NumProcs: 256})})
	trfd, _ := suite.ByName("trfd")
	progs = append(progs, prog{"padded", strings.Repeat("\n", 20000) + suite.Source(trfd)})
	for _, p := range progs {
		f := source.NewFile(p.name+".f", p.src)
		var toks []Token
		// The fewest bytes over a few runs: anything else allocating
		// concurrently can only add to a single reading.
		var alloc uint64
		for run := 0; run < 3; run++ {
			var diags source.ErrorList
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			toks = Tokenize(f, &diags)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < alloc {
				alloc = n
			}
		}
		final := uint64(len(toks)) * uint64(unsafe.Sizeof(Token{}))
		ratio := float64(alloc) / float64(final)
		t.Logf("%-10s %6d tokens, %.2f bytes/token, allocated %.2fx the final slice",
			p.name, len(toks), float64(len(strings.TrimLeft(p.src, "\n")))/float64(len(toks)), ratio)
		if ratio > 1.5 {
			t.Errorf("%s: Tokenize allocated %d bytes for %d bytes of tokens (%.2fx > 1.5x)", p.name, alloc, final, ratio)
		}
	}
}

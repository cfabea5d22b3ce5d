package memo

import (
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/jump"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/subst"
	"repro/internal/suite"
	"repro/internal/symbolic"
)

// TestPhaseProfile is a development probe: it prints where the pipeline
// spends its time on the benchmark program so cache design decisions are
// grounded in numbers. Run with -v; it asserts nothing.
func TestPhaseProfile(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Skip("no spec77")
	}
	src := suite.Source(spec)
	t.Logf("source: %d bytes", len(src))

	best := func(name string, f func()) time.Duration {
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			d := time.Since(start)
			if min == 0 || d < min {
				min = d
			}
		}
		t.Logf("%-12s %v", name, min)
		return min
	}

	var diags source.ErrorList
	f := parser.ParseSource("spec77.f", src, &diags)
	best("parse", func() {
		var d source.ErrorList
		parser.ParseSource("spec77.f", src, &d)
	})
	prog, err := sem.AnalyzeParallelCtx(nil, f, &diags, 1)
	if err != nil || diags.Err() != nil {
		t.Fatalf("sem: %v %v", err, diags.Err())
	}
	best("sem", func() {
		var d source.ErrorList
		f2 := parser.ParseSource("spec77.f", src, &d)
		_, _ = sem.AnalyzeParallelCtx(nil, f2, &d, 1)
	})
	cg := callgraph.Build(prog)
	best("callgraph", func() { callgraph.Build(prog) })
	mod := modref.Compute(cg)
	best("modref", func() { modref.Compute(cg) })
	jc := jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	fns, err := jump.Build(nil, cg, mod, ssa.NewTable(cg, mod.Kills), symbolic.NewBuilder(), jc, nil)
	if err != nil {
		t.Fatal(err)
	}
	best("jump", func() {
		_, _ = jump.Build(nil, cg, mod, ssa.NewTable(cg, mod.Kills), symbolic.NewBuilder(), jc, nil)
	})
	best("subst", func() {
		subst.Run(cg, mod, ssa.NewTable(cg, mod.Kills), subst.Options{
			UseMOD: true, UseReturnJFs: true, Returns: fns.Returns,
			Builder: symbolic.NewBuilder(), Parallelism: 1,
		})
	})
}

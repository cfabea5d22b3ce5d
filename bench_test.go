// Benchmarks: one per paper exhibit (Figure 1, Tables 1–3), plus the
// cost measurements of §3.1.5 (jump function construction and
// propagation) and the solver ablation (worklist vs binding graph).
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/jump"
	"repro/internal/lattice"
	"repro/internal/lexer"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/report"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/suite"
	"repro/internal/symbolic"
	ipcppkg "repro/ipcp"
)

// mustProgram parses and checks a source blob.
func mustProgram(b *testing.B, name, src string) *sem.Program {
	b.Helper()
	var diags source.ErrorList
	f := parser.ParseSource(name, src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		b.Fatalf("%s: %s", name, diags.Error())
	}
	return prog
}

func suiteProgram(b *testing.B, name string) *sem.Program {
	b.Helper()
	spec, ok := suite.ByName(name)
	if !ok {
		b.Fatalf("no suite program %s", name)
	}
	return mustProgram(b, name, suite.Source(spec))
}

func cfg(kind jump.Kind, useMod, rjf bool) core.Config {
	return core.Config{Jump: jump.Config{Kind: kind, UseMOD: useMod, UseReturnJFs: rjf}}
}

// ---------------------------------------------------------------------
// Figure 1: the lattice.

func BenchmarkFigure1Meet(b *testing.B) {
	vals := []lattice.Value{
		lattice.TopValue(), lattice.BottomValue(),
		lattice.ConstValue(1), lattice.ConstValue(2), lattice.ConstValue(-7),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := lattice.TopValue()
		for _, w := range vals {
			v = lattice.Meet(v, w)
		}
		if !v.IsBottom() {
			b.Fatal("meet chain should bottom out")
		}
	}
}

// ---------------------------------------------------------------------
// Table 1: suite synthesis and characterization.

func BenchmarkTable1Suite(b *testing.B) {
	specs := suite.Programs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			src := suite.Source(spec)
			ch := suite.Characterize(spec.Name, src)
			if ch.Procs == 0 {
				b.Fatal("empty characterization")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Table 2: the four jump functions (per representative program).

func BenchmarkTable2JumpFunctions(b *testing.B) {
	for _, name := range []string{"trfd", "matrix300", "ocean"} {
		prog := suiteProgram(b, name)
		for _, kind := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
			b.Run(fmt.Sprintf("%s/%v", name, kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a := core.AnalyzeProgram(prog, cfg(kind, true, true))
					if a.Vals == nil {
						b.Fatal("nil solution")
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Table 3: technique comparison (per representative program).

func BenchmarkTable3Techniques(b *testing.B) {
	prog := suiteProgram(b, "matrix300")
	configs := map[string]core.Config{
		"poly-noMOD": cfg(jump.Polynomial, false, true),
		"poly-MOD":   cfg(jump.Polynomial, true, true),
		"complete": func() core.Config {
			c := cfg(jump.Polynomial, true, true)
			c.Complete = true
			return c
		}(),
	}
	for name, c := range configs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.AnalyzeProgram(prog, c).Substitute()
			}
		})
	}
	b.Run("intraprocedural", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.IntraproceduralCount(prog)
		}
	})
}

// ---------------------------------------------------------------------
// §3.1.5: jump function construction cost by kind.

func BenchmarkJumpFunctionConstruction(b *testing.B) {
	prog := suiteProgram(b, "ocean")
	cg := callgraph.Build(prog)
	mod := modref.Compute(cg)
	for _, kind := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb := symbolic.NewBuilder()
				fns, err := jump.Build(nil, cg, mod, ssa.NewTable(cg, mod.Kills), sb, jump.Config{Kind: kind, UseMOD: true, UseReturnJFs: true}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(fns.Procs) == 0 {
					b.Fatal("no jump functions")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// §3.1.5 / 1986 §4: propagation cost, worklist vs binding graph, over a
// size sweep of generated programs.

// BenchmarkPropagationSolvers isolates the propagation phase: the jump
// functions are built once per kind, then each solver re-runs over them
// via Analysis.RunSolver. jf_evals_per_op is the per-iteration
// jump-function evaluation count — the paper's cost unit — so the
// binding graph's re-evaluate-only-on-support-lowering discipline is
// visible next to the worklist's blanket re-evaluation.
func BenchmarkPropagationSolvers(b *testing.B) {
	src := gen.Program(gen.Config{Seed: 11, NumProcs: 32, StmtsPerProc: 12})
	prog := mustProgram(b, "gen32", src)
	for _, kind := range []jump.Kind{jump.Literal, jump.PassThrough, jump.Polynomial} {
		a := core.AnalyzeProgram(prog, cfg(kind, true, true))
		// The two solvers must agree before their costs are comparable.
		wl, _, err := a.RunSolver(core.SolverWorklist)
		if err != nil {
			b.Fatal(err)
		}
		bg, _, err := a.RunSolver(core.SolverBinding)
		if err != nil {
			b.Fatal(err)
		}
		if !wl.Equal(bg) {
			b.Fatalf("%v: worklist and binding-graph solutions differ", kind)
		}
		for _, solver := range []core.SolverKind{core.SolverWorklist, core.SolverBinding} {
			b.Run(fmt.Sprintf("%v/%v", kind, solver), func(b *testing.B) {
				b.ReportAllocs()
				total := 0
				for i := 0; i < b.N; i++ {
					_, evals, err := a.RunSolver(solver)
					if err != nil {
						b.Fatal(err)
					}
					total += evals
				}
				b.ReportMetric(float64(total)/float64(b.N), "jf_evals_per_op")
			})
		}
	}
}

// ---------------------------------------------------------------------
// Front-end throughput (context for the analysis costs).

func BenchmarkFrontEnd(b *testing.B) {
	spec, _ := suite.ByName("spec77")
	src := suite.Source(spec)
	b.Run("lex", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			var diags source.ErrorList
			toks := lexer.Tokenize(source.NewFile("s.f", src), &diags)
			if len(toks) == 0 {
				b.Fatal("no tokens")
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			var diags source.ErrorList
			f := parser.ParseSource("s.f", src, &diags)
			if len(f.Units) == 0 {
				b.Fatal("no units")
			}
		}
	})
	b.Run("sem", func(b *testing.B) {
		var diags source.ErrorList
		f := parser.ParseSource("s.f", src, &diags)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var d2 source.ErrorList
			sem.Analyze(f, &d2)
		}
	})
	b.Run("ssa", func(b *testing.B) {
		prog := mustProgram(b, "s.f", src)
		cg := callgraph.Build(prog)
		mod := modref.Compute(cg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range cg.Order {
				dt := dom.Compute(n.CFG)
				ssa.Build(n.CFG, dt, ssa.Options{Kills: mod.Kills, Globals: prog.Globals()})
			}
		}
	})
}

// ---------------------------------------------------------------------
// Parallel pipeline: the whole public analysis and the exhibit sweep at
// explicit worker counts. Output is bit-identical at every setting
// (ipcp.TestParallelMatchesSerial); these measure what the workers buy.

func BenchmarkParallelAnalyze(b *testing.B) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		b.Fatal("no suite program spec77")
	}
	src := suite.Source(spec)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := ipcppkg.Config{Kind: ipcppkg.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: workers}
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := ipcppkg.Analyze("spec77.f", src, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelSweep(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := report.ComputeTable2With(workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Reference interpreter throughput (the evaluation oracle).

func BenchmarkInterpreter(b *testing.B) {
	prog := mustProgram(b, "loop.f", `PROGRAM MAIN
INTEGER I, J, S
S = 0
DO I = 1, 100
  DO J = 1, 100
    S = S + MOD(I*J, 7)
  ENDDO
ENDDO
PRINT *, S
END
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := interp.Run(prog, interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps == 0 {
			b.Fatal("no steps")
		}
	}
}

// ---------------------------------------------------------------------
// Ablation: gated-SSA jump functions vs iterated complete propagation —
// the paper's §4.2 suggestion that GSA subsumes the iteration.

func BenchmarkGatedVsComplete(b *testing.B) {
	prog := suiteProgram(b, "ocean")
	b.Run("complete-iterated", func(b *testing.B) {
		c := cfg(jump.Polynomial, true, true)
		c.Complete = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.AnalyzeProgram(prog, c)
		}
	})
	b.Run("gated-single-round", func(b *testing.B) {
		c := cfg(jump.Polynomial, true, true)
		c.Jump.Gated = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.AnalyzeProgram(prog, c)
		}
	})
}

// ---------------------------------------------------------------------
// Ablation: the paper-faithful constants-only return jump function
// substitution vs the FullSubstitution extension.

func BenchmarkReturnJFSubstitutionModes(b *testing.B) {
	src := gen.Program(gen.Config{Seed: 5, NumProcs: 20, StmtsPerProc: 14})
	prog := mustProgram(b, "gen.f", src)
	for _, full := range []bool{false, true} {
		name := "paper-constants-only"
		if full {
			name = "full-substitution"
		}
		b.Run(name, func(b *testing.B) {
			c := cfg(jump.Polynomial, true, true)
			c.Jump.FullSubstitution = full
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.AnalyzeProgram(prog, c)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Extension costs: procedure cloning and substitution counting.

func BenchmarkCloning(b *testing.B) {
	src := `PROGRAM MAIN
CALL SOLVE(8)
CALL SOLVE(512)
CALL SOLVE(64)
END
SUBROUTINE SOLVE(N)
INTEGER N, I, S
S = 0
DO I = 1, N
  S = S + I
ENDDO
PRINT *, S
END
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, info, err := ipcppkg.AnalyzeWithCloning("solve.f", src, ipcppkg.DefaultConfig(), 3)
		if err != nil {
			b.Fatal(err)
		}
		if info.Created == 0 || res.SubstitutionCount() == 0 {
			b.Fatal("cloning had no effect")
		}
	}
}

func BenchmarkSubstitutionCounting(b *testing.B) {
	prog := suiteProgram(b, "snasa7")
	a := core.AnalyzeProgram(prog, cfg(jump.PassThrough, true, true))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a.Substitute().Total == 0 {
			b.Fatal("no substitutions")
		}
	}
}

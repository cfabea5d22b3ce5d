package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/jump"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// genProgram parses a random generated program.
func genProgram(t *testing.T, cfg gen.Config) (*sem.Program, string) {
	t.Helper()
	src := gen.Program(cfg)
	var diags source.ErrorList
	f := parser.ParseSource("gen.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("generated program invalid (seed %d):\n%s\n%s", cfg.Seed, diags.Error(), src)
	}
	return prog, src
}

func allConfigs() []Config {
	var out []Config
	for _, kind := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
		for _, useMod := range []bool{true, false} {
			for _, rjf := range []bool{true, false} {
				out = append(out, Config{Jump: jump.Config{Kind: kind, UseMOD: useMod, UseReturnJFs: rjf}})
			}
		}
	}
	// The extension and completeness variants.
	out = append(out,
		Config{Jump: jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true, FullSubstitution: true}},
		Config{Jump: jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true}, Complete: true},
		Config{Jump: jump.Config{Kind: jump.PassThrough, UseMOD: true, UseReturnJFs: true}, Solver: SolverBinding},
		Config{Jump: jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true, Gated: true}},
		Config{Jump: jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true, Gated: true, FullSubstitution: true}},
	)
	return out
}

// TestSoundnessOnRandomPrograms is the central property test of the
// repository: for random programs and every analysis configuration,
// every (name, value) pair in every CONSTANTS(p) set must match the
// value actually observed on entry to p during execution.
func TestSoundnessOnRandomPrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	configs := allConfigs()
	for seed := 0; seed < seeds; seed++ {
		cfg := gen.Config{Seed: int64(seed), WithReads: seed%4 == 0, NumProcs: 3 + seed%4}
		prog, src := genProgram(t, cfg)

		run, err := interp.Run(prog, interp.Options{
			Input:    []int64{7, -2, 13, 0, 5, 99},
			MaxSteps: 1 << 19,
		})
		if err != nil {
			t.Fatalf("seed %d: interpreter: %v\n%s", seed, err, src)
		}

		for ci, c := range configs {
			a := AnalyzeProgram(prog, c)
			for _, p := range prog.Order {
				snaps := run.Entries[p]
				if len(snaps) == 0 {
					continue // never called at run time: vacuously sound
				}
				for _, k := range a.Constants(p) {
					for si, snap := range snaps {
						var got int64
						var have bool
						if k.Global != nil {
							got, have = snap.Globals[k.Global]
						} else {
							got, have = snap.Formals[k.FormalIndex]
						}
						if have && got != k.Value {
							t.Fatalf("seed %d config %d (%+v): UNSOUND: %s in %s claimed %d, observed %d at call %d\n%s",
								seed, ci, c.Jump, k.Name, p.Name, k.Value, got, si, src)
						}
					}
				}
			}
		}
	}
}

// TestJumpFunctionHierarchyOnRandomPrograms: per the paper, each jump
// function's constants are a subset of the next more powerful one's —
// lattice-wise, VAL under a weaker configuration is ⊑ VAL under a
// stronger one.
func TestJumpFunctionHierarchyOnRandomPrograms(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	kinds := []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial}
	for seed := 0; seed < seeds; seed++ {
		prog, src := genProgram(t, gen.Config{Seed: int64(seed * 31)})
		var analyses []*Analysis
		for _, k := range kinds {
			analyses = append(analyses, AnalyzeProgram(prog, Config{Jump: jump.Config{Kind: k, UseMOD: true, UseReturnJFs: true}}))
		}
		for i := 0; i+1 < len(analyses); i++ {
			lo, hi := analyses[i], analyses[i+1]
			for _, p := range prog.Order {
				for fi := range p.Formals {
					vl, vh := lo.Vals.Formal(p, fi), hi.Vals.Formal(p, fi)
					if !lattice.Leq(vl, vh) {
						t.Fatalf("seed %d: hierarchy violated (%v vs %v) on %s formal %d: %v vs %v\n%s",
							seed, kinds[i], kinds[i+1], p.Name, fi, vl, vh, src)
					}
				}
				for _, g := range prog.Globals() {
					vl, vh := lo.Vals.Global(p, g), hi.Vals.Global(p, g)
					if !lattice.Leq(vl, vh) {
						t.Fatalf("seed %d: hierarchy violated (%v vs %v) on %s global %s: %v vs %v\n%s",
							seed, kinds[i], kinds[i+1], p.Name, g.Key(), vl, vh, src)
					}
				}
			}
		}
		// Substitution counts follow the same order.
		var counts []int
		for _, a := range analyses {
			counts = append(counts, a.Substitute().Total)
		}
		for i := 0; i+1 < len(counts); i++ {
			if counts[i] > counts[i+1] {
				t.Fatalf("seed %d: substitution hierarchy violated: %v\n%s", seed, counts, src)
			}
		}
	}
}

// TestMODAndRJFMonotonicityOnRandomPrograms: adding MOD information or
// return jump functions can only improve the solution.
func TestMODAndRJFMonotonicityOnRandomPrograms(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		prog, src := genProgram(t, gen.Config{Seed: int64(seed*17 + 5)})
		base := jump.Config{Kind: jump.Polynomial, UseMOD: false, UseReturnJFs: false}
		withMod := base
		withMod.UseMOD = true
		withBoth := withMod
		withBoth.UseReturnJFs = true

		aBase := AnalyzeProgram(prog, Config{Jump: base})
		aMod := AnalyzeProgram(prog, Config{Jump: withMod})
		aBoth := AnalyzeProgram(prog, Config{Jump: withBoth})

		check := func(lo, hi *Analysis, what string) {
			t.Helper()
			for _, p := range prog.Order {
				for fi := range p.Formals {
					if !lattice.Leq(lo.Vals.Formal(p, fi), hi.Vals.Formal(p, fi)) {
						t.Fatalf("seed %d: %s monotonicity violated on %s formal %d: %v vs %v\n%s",
							seed, what, p.Name, fi, lo.Vals.Formal(p, fi), hi.Vals.Formal(p, fi), src)
					}
				}
			}
		}
		check(aBase, aMod, "MOD")
		check(aMod, aBoth, "RJF")
	}
}

// TestSolverEquivalenceOnRandomPrograms: the worklist and binding-graph
// solvers must compute identical VAL sets.
func TestSolverEquivalenceOnRandomPrograms(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		prog, src := genProgram(t, gen.Config{Seed: int64(seed*7 + 3)})
		for _, kind := range []jump.Kind{jump.Literal, jump.PassThrough, jump.Polynomial} {
			jc := jump.Config{Kind: kind, UseMOD: true, UseReturnJFs: true}
			aw := AnalyzeProgram(prog, Config{Jump: jc, Solver: SolverWorklist})
			ab := AnalyzeProgram(prog, Config{Jump: jc, Solver: SolverBinding})
			if !aw.Vals.Equal(ab.Vals) {
				t.Fatalf("seed %d kind %v: solvers disagree\nworklist:\n%s\nbinding:\n%s\n%s",
					seed, kind, aw.Vals, ab.Vals, src)
			}
		}
	}
}

// TestCompletePropagationMonotone: complete propagation finds at least
// the plain solution.
func TestCompletePropagationMonotone(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		prog, src := genProgram(t, gen.Config{Seed: int64(seed*13 + 1)})
		jc := jump.Config{Kind: jump.Polynomial, UseMOD: true, UseReturnJFs: true}
		plain := AnalyzeProgram(prog, Config{Jump: jc})
		complete := AnalyzeProgram(prog, Config{Jump: jc, Complete: true})
		for _, p := range prog.Order {
			for fi := range p.Formals {
				if !lattice.Leq(plain.Vals.Formal(p, fi), complete.Vals.Formal(p, fi)) {
					t.Fatalf("seed %d: complete propagation lost a constant on %s formal %d\n%s",
						seed, p.Name, fi, src)
				}
			}
		}
	}
}

// underEveryKind applies each mode to DefaultConfig under every
// jump-function kind, keyed "kind/mode".
func underEveryKind(modes map[string]func(*Config)) map[string]Config {
	out := make(map[string]Config)
	for _, kind := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
		for name, tweak := range modes {
			c := DefaultConfig()
			c.Jump.Kind = kind
			tweak(&c)
			out[kind.String()+"/"+name] = c
		}
	}
	return out
}

// substitutingConfigs is every jump-function kind, alone and under each
// analysis mode that changes what substitution finds.
func substitutingConfigs(t *testing.T) map[string]Config {
	t.Helper()
	condConst := mustDomain(t, "cond-const")
	return underEveryKind(map[string]func(*Config){
		"":          func(*Config) {},
		"complete":  func(c *Config) { c.Complete = true },
		"gated":     func(c *Config) { c.Jump.Gated = true },
		"full-sub":  func(c *Config) { c.Jump.FullSubstitution = true },
		"no-mod":    func(c *Config) { c.Jump.UseMOD = false },
		"no-ret":    func(c *Config) { c.Jump.UseReturnJFs = false },
		"maxexpr3":  func(c *Config) { c.Budget.MaxExprSize = 3 },
		"binding":   func(c *Config) { c.Solver = SolverBinding },
		"condconst": func(c *Config) { c.Domain = condConst },
	})
}

// TestTransformedSourceStillSoundOnRandomPrograms: substituting the
// discovered constants into the text must not change program output,
// under every configuration that substitutes.
func TestTransformedSourceStillSoundOnRandomPrograms(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	cfgs := substitutingConfigs(t)
	for seed := 0; seed < seeds; seed++ {
		src := gen.Program(gen.Config{Seed: int64(seed*29 + 11)})
		var diags source.ErrorList
		f := parser.ParseSource("gen.f", src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		input := []int64{1, 2, 3}
		before, err := interp.Run(prog, interp.Options{Input: input, MaxSteps: 1 << 19})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		for name, cfg := range cfgs {
			a := AnalyzeProgram(prog, cfg)
			out := a.TransformedSource(f)

			var diags2 source.ErrorList
			f2 := parser.ParseSource("gen2.f", out, &diags2)
			prog2 := sem.Analyze(f2, &diags2)
			if diags2.HasErrors() {
				t.Fatalf("seed %d %s: transformed source invalid:\n%s\n%s", seed, name, diags2.Error(), out)
			}
			after, err := interp.Run(prog2, interp.Options{Input: input, MaxSteps: 1 << 19})
			if err != nil {
				t.Fatalf("seed %d %s: transformed execution: %v", seed, name, err)
			}
			if before.Output != after.Output {
				t.Fatalf("seed %d %s: substitution changed behaviour\nbefore:\n%s\nafter:\n%s\ntransformed source:\n%s",
					seed, name, before.Output, after.Output, out)
			}
		}
	}
}

// TestStressLargerPrograms exercises bigger generated programs end to
// end (no assertions beyond not crashing and staying sound on spot
// checks).
func TestStressLargerPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for seed := 0; seed < 5; seed++ {
		prog, _ := genProgram(t, gen.Config{Seed: int64(seed), NumProcs: 14, StmtsPerProc: 25, Globals: 4})
		a := AnalyzeProgram(prog, DefaultConfig())
		if a.Vals == nil {
			t.Fatal("nil values")
		}
		_ = a.Substitute()
	}
}

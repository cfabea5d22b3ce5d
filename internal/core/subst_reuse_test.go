package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/subst"
	"repro/internal/suite"
)

// coneSources are programs where a solved constant reaches a counted use
// only along one kind of dependence the reuse test must follow: a call's
// return jump function, a phi, and (under Gated) a branch value. In each,
// the entry value itself is read only as an actual the callee modifies,
// which substitution never counts.
var coneSources = map[string]string{
	"cone-postcall": `PROGRAM MAIN
CALL S(4)
END
SUBROUTINE S(N)
INTEGER N
CALL INC(N)
PRINT *, N
END
SUBROUTINE INC(X)
INTEGER X
X = X + 1
END
`,
	"cone-phi": `PROGRAM MAIN
INTEGER I
READ *, I
CALL S(4, I)
END
SUBROUTINE S(N, I)
INTEGER N, I
IF (I .GT. 0) THEN
  CALL INC(N)
ELSE
  CALL INC(N)
ENDIF
PRINT *, N
END
SUBROUTINE INC(X)
INTEGER X
X = X + 1
END
`,
	"cone-branch": `PROGRAM MAIN
CALL S(1)
END
SUBROUTINE S(K)
INTEGER K, M, F
IF (F(K) .EQ. 2) THEN
  M = 5
ELSE
  M = 6
ENDIF
PRINT *, M
END
INTEGER FUNCTION F(X)
INTEGER X
X = X + 1
F = X
END
`,
}

// reuseGridPrograms parses the suite, the core testdata, coneSources and
// generated programs of 3, 16 and 64 procedures, keyed by name.
func reuseGridPrograms(t *testing.T) map[string]*sem.Program {
	t.Helper()
	srcs := make(map[string]string)
	for name, src := range coneSources {
		srcs[name] = src
	}
	for _, spec := range suite.Programs() {
		srcs[spec.Name] = suite.Source(spec)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no core testdata programs: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs["testdata/"+filepath.Base(path)] = string(src)
	}
	for _, g := range []struct{ procs, seeds int }{{3, 4}, {16, 2}, {64, 1}} {
		for seed := 1; seed <= g.seeds; seed++ {
			srcs[fmt.Sprintf("gen-%d-%d", g.procs, seed)] = gen.Program(gen.Config{Seed: int64(seed), NumProcs: g.procs})
		}
	}
	progs := make(map[string]*sem.Program, len(srcs))
	for name, src := range srcs {
		var diags source.ErrorList
		f := parser.ParseSource(name, src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: %s", name, diags.Error())
		}
		progs[name] = prog
	}
	return progs
}

// reuseGridConfigs is every jump-function kind under each analysis mode
// that changes how substitution may reuse a stored value numbering.
func reuseGridConfigs(t *testing.T) map[string]Config {
	t.Helper()
	interval, condConst := mustDomain(t, "interval"), mustDomain(t, "cond-const")
	return underEveryKind(map[string]func(*Config){
		"plain":               func(*Config) {},
		"complete":            func(c *Config) { c.Complete = true },
		"gated":               func(c *Config) { c.Jump.Gated = true },
		"no-mod":              func(c *Config) { c.Jump.UseMOD = false },
		"no-ret":              func(c *Config) { c.Jump.UseReturnJFs = false },
		"full-sub":            func(c *Config) { c.Jump.FullSubstitution = true },
		"maxexpr3":            func(c *Config) { c.Budget.MaxExprSize = 3 },
		"interval":            func(c *Config) { c.Domain = interval },
		"cond-const":          func(c *Config) { c.Domain = condConst },
		"cond-const/maxexpr5": func(c *Config) { c.Domain = condConst; c.Budget.MaxExprSize = 5 },
		"complete+gated":      func(c *Config) { c.Complete = true; c.Jump.Gated = true },
	})
}

// TestSubstReuseMatchesReanalysis is the equivalence proof of
// substitution's fast path: counting from the value numberings jump
// construction stored must give exactly the counts and replacement texts
// of value-numbering every procedure again under the solved entry
// constants.
func TestSubstReuseMatchesReanalysis(t *testing.T) {
	progs := reuseGridPrograms(t)
	cfgs := reuseGridConfigs(t)
	var pairs, procs, reanalyzed int
	for pname, prog := range progs {
		for cname, cfg := range cfgs {
			for _, par := range []int{1, 4} {
				cfg.Parallelism = par
				a := AnalyzeProgram(prog, cfg)
				opts := a.substOptions()
				fast := subst.Run(a.Graph, a.Mod, a.forms, opts)
				opts.Intra = nil
				slow := subst.Run(a.Graph, a.Mod, a.forms, opts)
				where := fmt.Sprintf("%s %s par %d", pname, cname, par)
				diffSubst(t, where, fast, slow)
				pairs++
				procs += len(prog.Order)
				reanalyzed += fast.Reanalyzed
				if slow.Reanalyzed != len(prog.Order) {
					t.Errorf("%s: %d of %d procedures re-analyzed without stored numberings",
						where, slow.Reanalyzed, len(prog.Order))
				}
			}
		}
	}
	t.Logf("%d (program, configuration, parallelism) runs: %d of %d procedures re-analyzed", pairs, reanalyzed, procs)
	if reanalyzed >= procs {
		t.Errorf("no stored value numbering was reused (%d of %d procedures re-analyzed)", reanalyzed, procs)
	}
}

// TestSubstReusesStoredNumberings: under the default configuration most
// suite procedures' solved constants reach no counted use, so
// substitution counts them from jump construction's value numbering.
func TestSubstReusesStoredNumberings(t *testing.T) {
	var procs, reanalyzed int
	for _, spec := range suite.Programs() {
		var diags source.ErrorList
		f := parser.ParseSource(spec.Name, suite.Source(spec), &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: %s", spec.Name, diags.Error())
		}
		cfg := DefaultConfig()
		cfg.Parallelism = 1
		sub := AnalyzeProgram(prog, cfg).Substitute()
		procs += len(prog.Order)
		reanalyzed += sub.Reanalyzed
	}
	t.Logf("suite, default configuration: %d of %d procedures re-analyzed", reanalyzed, procs)
	if reused := procs - reanalyzed; reused*4 < procs*3 {
		t.Errorf("reused %d of %d procedures' value numberings, want at least three quarters", reused, procs)
	}
}

// diffSubst reports every difference between two substitution results.
func diffSubst(t *testing.T, where string, got, want *subst.Result) {
	t.Helper()
	if got.Total != want.Total {
		t.Errorf("%s: total %d, re-analysis %d", where, got.Total, want.Total)
	}
	if len(got.PerProc) != len(want.PerProc) {
		t.Errorf("%s: %d per-procedure counts, re-analysis %d", where, len(got.PerProc), len(want.PerProc))
	}
	for p, n := range want.PerProc {
		if got.PerProc[p] != n {
			t.Errorf("%s: %s counts %d, re-analysis %d", where, p.Name, got.PerProc[p], n)
		}
	}
	if len(got.Replacements) != len(want.Replacements) {
		t.Errorf("%s: %d replacements, re-analysis %d", where, len(got.Replacements), len(want.Replacements))
	}
	for e, txt := range want.Replacements {
		if g, ok := got.Replacements[e]; !ok || g != txt {
			t.Errorf("%s: use at %v replaced by %q, re-analysis %q", where, e.Pos(), g, txt)
		}
	}
}

package ipcp

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/suite"
)

// equivalenceProgram is one program the equivalence gates run over.
type equivalenceProgram struct {
	name, src string
}

// equivalencePrograms returns the suite programs followed by the
// curated recursion program: no suite program has a recursive
// procedure, and recursive procedures are the ones the jump-function
// builder summarizes differently.
func equivalencePrograms(t *testing.T) []equivalenceProgram {
	t.Helper()
	var out []equivalenceProgram
	for _, spec := range suite.Programs() {
		out = append(out, equivalenceProgram{spec.Name, suite.Source(spec)})
	}
	src, err := os.ReadFile(filepath.Join("..", "internal", "core", "testdata", "recursion.f"))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, equivalenceProgram{"recursion", string(src)})
}

// fingerprint renders every externally observable facet of a Result as
// one string, so two analyses can be compared byte for byte: the
// CONSTANTS sets, the substitution counts, the transformed source, the
// rendered jump functions, the solver statistics, and any warnings.
func fingerprint(r *Result) string {
	var b strings.Builder
	for _, proc := range r.Procedures() {
		ks := r.ConstantsOf(proc)
		if len(ks) == 0 {
			continue
		}
		fmt.Fprintf(&b, "CONSTANTS(%s):", proc)
		for _, k := range ks {
			fmt.Fprintf(&b, " (%s,%d,global=%v,block=%s,ref=%v)", k.Name, k.Value, k.IsGlobal, k.Block, k.Referenced)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "total=%d\n", r.SubstitutionCount())
	perProc := r.SubstitutionCounts()
	names := make([]string, 0, len(perProc))
	for name := range perProc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "subst(%s)=%d\n", name, perProc[name])
	}
	for _, line := range r.JumpFunctions() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	jfe, low, rounds := r.Stats()
	fmt.Fprintf(&b, "stats=%d/%d/%d\n", jfe, low, rounds)
	for _, w := range r.Warnings {
		b.WriteString(w)
		b.WriteByte('\n')
	}
	b.WriteString(r.TransformedSource())
	return b.String()
}

func analyzeAt(t *testing.T, name, src string, cfg Config, parallelism int) string {
	t.Helper()
	cfg.Parallelism = parallelism
	res, err := Analyze(name, src, cfg)
	if err != nil {
		t.Fatalf("%s (parallelism %d): %v", name, parallelism, err)
	}
	return fingerprint(res)
}

// TestParallelMatchesSerial is the determinism gate for the parallel
// pipeline: for every suite program and the recursion program under all
// four jump-function kinds,
// an analysis with a worker pool must be byte-identical to the serial
// one — same constants, same substitutions, same rendered jump
// functions, same transformed source, same solver statistics.
func TestParallelMatchesSerial(t *testing.T) {
	kinds := []Kind{Literal, Intraprocedural, PassThrough, Polynomial}
	for _, prog := range equivalencePrograms(t) {
		for _, kind := range kinds {
			cfg := Config{Kind: kind, UseMOD: true, UseReturnJFs: true}
			t.Run(fmt.Sprintf("%s/%v", prog.name, kind), func(t *testing.T) {
				serial := analyzeAt(t, prog.name+".f", prog.src, cfg, 1)
				parallel := analyzeAt(t, prog.name+".f", prog.src, cfg, 4)
				if serial != parallel {
					t.Errorf("parallel output diverges from serial\nserial:\n%s\nparallel:\n%s", serial, parallel)
				}
			})
		}
	}
}

// TestParallelMatchesSerialModes covers the remaining configuration
// axes on one representative program: complete propagation (iterated
// rounds re-enter the jump-function builder), gated SSA, no-MOD,
// no-return-JFs, and the binding-graph solver.
func TestParallelMatchesSerialModes(t *testing.T) {
	spec, ok := suite.ByName("matrix300")
	if !ok {
		t.Fatal("no suite program matrix300")
	}
	src := suite.Source(spec)
	base := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}
	modes := map[string]func(*Config){
		"complete": func(c *Config) { c.Complete = true },
		"gated":    func(c *Config) { c.Gated = true },
		"no-mod":   func(c *Config) { c.UseMOD = false },
		"no-ret":   func(c *Config) { c.UseReturnJFs = false },
		"binding":  func(c *Config) { c.Solver = BindingGraph },
		"full-sub": func(c *Config) { c.FullSubstitution = true },
	}
	for name, tweak := range modes {
		cfg := base
		tweak(&cfg)
		t.Run(name, func(t *testing.T) {
			serial := analyzeAt(t, "m.f", src, cfg, 1)
			parallel := analyzeAt(t, "m.f", src, cfg, 4)
			if serial != parallel {
				t.Errorf("parallel output diverges from serial\nserial:\n%s\nparallel:\n%s", serial, parallel)
			}
		})
	}
}

// TestConcurrentAnalyze runs the whole public pipeline from many
// goroutines at once — each itself using a worker pool — and demands
// identical results. Run under -race this is the data-race gate for
// the shared front-end and analysis state.
func TestConcurrentAnalyze(t *testing.T) {
	spec, ok := suite.ByName("trfd")
	if !ok {
		t.Fatal("no suite program trfd")
	}
	src := suite.Source(spec)
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 2}

	const goroutines = 8
	prints := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Analyze("trfd.f", src, cfg)
			if err != nil {
				errs[g] = err
				return
			}
			prints[g] = fingerprint(res)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if prints[g] != prints[0] {
			t.Errorf("goroutine %d saw a different result\nfirst:\n%s\ngoroutine %d:\n%s",
				g, prints[0], g, prints[g])
		}
	}
}

package ipcp

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
)

// analyzeCachedAt analyzes with the given cache attached and returns
// the result fingerprint.
func analyzeCachedAt(t *testing.T, cache *Cache, name, src string, cfg Config, parallelism int) string {
	t.Helper()
	cfg.Parallelism = parallelism
	cfg.Cache = cache
	res, err := Analyze(name, src, cfg)
	if err != nil {
		t.Fatalf("%s (cached, parallelism %d): %v", name, parallelism, err)
	}
	return fingerprint(res)
}

// TestCacheEquivalence is the incremental-analysis correctness gate:
// for every suite program and the recursion program, every
// jump-function kind, both solvers, and serial and parallel pipelines,
// the cached analysis — both the cold run that populates the cache and
// the warm run that reuses every artifact — must be byte-identical to
// the uncached one.
func TestCacheEquivalence(t *testing.T) {
	kinds := []Kind{Literal, Intraprocedural, PassThrough, Polynomial}
	solvers := []Solver{Worklist, BindingGraph}
	for _, prog := range equivalencePrograms(t) {
		for _, kind := range kinds {
			for _, solver := range solvers {
				for _, par := range []int{1, 4} {
					cfg := Config{Kind: kind, UseMOD: true, UseReturnJFs: true, Solver: solver}
					name := fmt.Sprintf("%s/%v/%v/p%d", prog.name, kind, solver, par)
					t.Run(name, func(t *testing.T) {
						want := analyzeAt(t, prog.name+".f", prog.src, cfg, par)
						cache := NewCache(CacheOptions{})
						cold := analyzeCachedAt(t, cache, prog.name+".f", prog.src, cfg, par)
						warm := analyzeCachedAt(t, cache, prog.name+".f", prog.src, cfg, par)
						if cold != want {
							t.Errorf("cold cached output diverges from uncached\nuncached:\n%s\ncached:\n%s", want, cold)
						}
						if warm != want {
							t.Errorf("warm cached output diverges from uncached\nuncached:\n%s\ncached:\n%s", want, warm)
						}
						if s := cache.Stats(); s.Hits == 0 {
							t.Errorf("warm run recorded no cache hits: %+v", s)
						}
					})
				}
			}
		}
	}
}

// TestCacheGatedAndNoMOD covers the remaining configuration axes
// (gated γ jump functions, MOD off, return jump functions off,
// full substitution) on one representative program.
func TestCacheGatedAndNoMOD(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Skip("no spec77 in suite")
	}
	src := suite.Source(spec)
	configs := []Config{
		{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Gated: true},
		{Kind: PassThrough, UseMOD: false, UseReturnJFs: true},
		{Kind: PassThrough, UseMOD: true, UseReturnJFs: false},
		{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, FullSubstitution: true},
	}
	for i, cfg := range configs {
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) {
			want := analyzeAt(t, "spec77.f", src, cfg, 1)
			cache := NewCache(CacheOptions{})
			for round := 0; round < 2; round++ {
				got := analyzeCachedAt(t, cache, "spec77.f", src, cfg, 1)
				if got != want {
					t.Errorf("round %d diverges from uncached", round)
				}
			}
		})
	}
}

// TestCacheCompletePropagation checks the complete-propagation loop
// (which bypasses the jump-function cache but still uses the world and
// substitution caches) stays byte-identical.
func TestCacheCompletePropagation(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Skip("no spec77 in suite")
	}
	src := suite.Source(spec)
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Complete: true}
	want := analyzeAt(t, "spec77.f", src, cfg, 1)
	cache := NewCache(CacheOptions{})
	for round := 0; round < 2; round++ {
		if got := analyzeCachedAt(t, cache, "spec77.f", src, cfg, 1); got != want {
			t.Errorf("round %d diverges from uncached", round)
		}
	}
}

// editSource returns src with the first marker replaced, failing the
// test when src has no marker: an edit that changes nothing tests
// nothing.
func editSource(t *testing.T, src, marker, replacement string) string {
	t.Helper()
	i := strings.Index(src, marker)
	if i < 0 {
		t.Fatalf("no %q to edit", marker)
	}
	return src[:i] + replacement + src[i+len(marker):]
}

// firstLiteral matches the first integer literal right of an "=".
var firstLiteral = regexp.MustCompile(`=\s*(\d+)`)

// TestCacheEditInvalidation re-analyzes edited variants of each suite
// program against a shared cache and checks every answer matches the
// uncached analysis of the same text — i.e. unit-level reuse never
// leaks stale constants into an edited program, and an edit to a callee
// invalidates its callers' artifacts (they lie in its blast radius).
// Each edit must be derived from the cached base.
func TestCacheEditInvalidation(t *testing.T) {
	for _, spec := range suite.Programs() {
		src := suite.Source(spec)
		t.Run(spec.Name, func(t *testing.T) {
			cache := NewCache(CacheOptions{})
			cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}

			check := func(label, text string) {
				t.Helper()
				want := analyzeAt(t, spec.Name+".f", text, cfg, 1)
				got := analyzeCachedAt(t, cache, spec.Name+".f", text, cfg, 1)
				if got != want {
					t.Errorf("%s: cached output diverges from uncached", label)
				}
			}
			derived := func(label, text string) {
				t.Helper()
				before := cache.Stats().Derived
				check(label, text)
				if got := cache.Stats().Derived; got <= before {
					t.Errorf("%s was not derived from the cached base (derived %d, was %d)", label, got, before)
				}
			}

			check("base", src)
			// A constant edit: the first integer literal right of an "="
			// changes.
			if m := firstLiteral.FindStringSubmatchIndex(src); m != nil {
				n, _ := strconv.Atoi(src[m[2]:m[3]])
				derived("const-edit", src[:m[2]]+strconv.Itoa(n+7)+src[m[3]:])
				check("base-again", src) // original artifacts must survive
			} else {
				t.Logf("%s has no integer literal right of an =; no constant edit", spec.Name)
			}
			// A structural edit: a statement inserted before the last call
			// moves every later unit.
			i := strings.LastIndex(src, "CALL ")
			if i < 0 {
				t.Fatal("no call to edit")
			}
			derived("struct-edit", src[:i]+"CONTINUE\n      "+src[i:])
		})
	}
}

// effect is one statement that gives a procedure an effect of a kind.
type effect struct{ kind, stmt string }

// effectStatements returns the effects an edit of p can add: a write to
// a scalar integer formal, a write to and a read of a scalar integer
// COMMON variable, and a call of a subroutine whose formals are all
// scalar integers, passing p's first scalar integer formal or COMMON
// variable.
func effectStatements(prog *sem.Program, p *sem.Procedure) []effect {
	scalarInt := func(s *sem.Symbol) bool { return !s.IsArray && s.Type == ast.TypeInteger }
	var out []effect
	actual := "1"
	for _, f := range p.Formals {
		if scalarInt(f) {
			out = append(out, effect{"formal-write", f.Name + " = 7"})
			actual = f.Name
			break
		}
	}
	for _, c := range p.Commons {
		if scalarInt(c) {
			out = append(out, effect{"common-write", c.Name + " = 7"}, effect{"common-read", "PRINT *, " + c.Name})
			if actual == "1" {
				actual = c.Name
			}
			break
		}
	}
	for _, q := range prog.Order {
		if q == p || q.Unit.Kind != ast.SubroutineUnit || len(q.Formals) == 0 {
			continue
		}
		args := make([]string, len(q.Formals))
		for i, f := range q.Formals {
			if !scalarInt(f) {
				args = nil
				break
			}
			args[i] = actual
		}
		if args != nil {
			out = append(out, effect{"call", fmt.Sprintf("CALL %s(%s)", q.Name, strings.Join(args, ", "))})
			break
		}
	}
	return out
}

// insertLine puts line before the first executable statement of a unit
// text. With hold it drops a trailing blank line so the unit keeps its
// line count; ok is false when there is none.
func insertLine(text, line string, hold bool) (string, bool) {
	var diags source.ErrorList
	f := parser.ParseSource("unit.f", text, &diags)
	if diags.HasErrors() || len(f.Units) != 1 || len(f.Units[0].Body) == 0 {
		return "", false
	}
	lines := strings.SplitAfter(text, "\n")
	at := f.Units[0].Body[0].Pos().Line - 1
	out := strings.Join(lines[:at], "") + line + "\n" + strings.Join(lines[at:], "")
	if hold {
		if !strings.HasSuffix(out, "\n\n") {
			return "", false
		}
		out = out[:len(out)-1]
	}
	return out, true
}

// namedConfig is one configuration of a test grid.
type namedConfig struct {
	name string
	cfg  Config
}

// derivedConfigs returns the configurations TestCacheDerivedEdits runs
// under: every jump-function kind with both solvers, serially and at
// parallelism 4, then the axes of TestCacheGatedAndNoMOD and complete
// propagation. The first is the one every program is edited under.
func derivedConfigs() []namedConfig {
	var out []namedConfig
	for _, kind := range []Kind{Polynomial, Literal, Intraprocedural, PassThrough} {
		for _, sv := range []namedConfig{{"worklist", Config{Solver: Worklist}}, {"binding", Config{Solver: BindingGraph}}} {
			for _, par := range []int{1, 4} {
				out = append(out, namedConfig{fmt.Sprintf("%v/%s/p%d", kind, sv.name, par), Config{
					Kind: kind, UseMOD: true, UseReturnJFs: true, Solver: sv.cfg.Solver, Parallelism: par,
				}})
			}
		}
	}
	return append(out,
		namedConfig{"gated", Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Gated: true, Parallelism: 1}},
		namedConfig{"nomod", Config{Kind: PassThrough, UseMOD: false, UseReturnJFs: true, Parallelism: 1}},
		namedConfig{"noret", Config{Kind: PassThrough, UseMOD: true, UseReturnJFs: false, Parallelism: 1}},
		namedConfig{"fullsubst", Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, FullSubstitution: true, Parallelism: 1}},
		namedConfig{"complete", Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Complete: true, Parallelism: 1}},
	)
}

// nqzUnit is a subroutine no program of the suite defines, added and
// removed by TestCacheDerivedEdits.
const nqzUnit = "      SUBROUTINE NQZADD(N)\n      INTEGER N\n      N = 3\n      END\n"

// TestCacheDerivedEdits drives caches through scripted edits that the
// replace step must derive from a cached world (counted by Derived),
// and checks every result is byte-identical to an uncached analysis.
// One cache per program takes one-unit edits that add an effect to a
// procedure — a formal write, a COMMON write, a COMMON read, a call —
// and then take it out again: in the last unit, in a middle unit that
// keeps its line count, and in a middle unit that grows by a line, so
// every later unit moves; then two at once, far apart, in the first
// unit that keeps its line count and in the last, so every unit between
// them is kept. Fresh caches then take structural edits: a
// unit appended; a unit inserted in the middle with a caller; that unit
// removed again with the call; and that unit removed while still
// called, which no derivation may accept. The cutoff cases of
// internal/session/testdata/cutoff, each an edit a caller sees or not
// through return jump functions, MOD sets, forward jump functions, DATA
// or a new call edge, run under every configuration. After every
// derived analysis the world's artifacts must refer to its own
// procedures only. Every program of the suite,
// the recursion program, the session effects program and entrydep.f
// are edited under the first configuration of derivedConfigs, and all
// but the suite's under every other one, with linpackd. In entrydep.f
// a COMMON write added to R changes what Q returns to P under complete
// propagation, while P is outside R's blast radius and its entry
// environment is unchanged. A procedure wrongly kept outside a blast
// radius, or a decision wrongly reused, shows up here as a stale
// constant.
func TestCacheDerivedEdits(t *testing.T) {
	progs := equivalencePrograms(t)
	effects, err := os.ReadFile(filepath.Join("..", "internal", "session", "testdata", "effects.f"))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(filepath.Join("testdata", "entrydep.f"))
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, equivalenceProgram{"effects", string(effects)}, equivalenceProgram{"entrydep", string(entry)})
	few := map[string]bool{"effects": true, "entrydep": true, "recursion": true, "linpackd": true}
	applied := make(map[string]int)
	for i, nc := range derivedConfigs() {
		for _, pr := range progs {
			if i > 0 && !few[pr.name] {
				continue
			}
			t.Run(nc.name+"/"+pr.name, func(t *testing.T) {
				derivedEdits(t, pr.name+".f", pr.src, nc.cfg, applied)
			})
		}
		t.Run(nc.name+"/cutoff", func(t *testing.T) {
			for _, c := range []string{"body", "summary", "mod", "forward", "data", "recursive"} {
				from, err := os.ReadFile(filepath.Join("..", "internal", "session", "testdata", "cutoff", c+".f"))
				if err != nil {
					t.Fatal(err)
				}
				to, err := os.ReadFile(filepath.Join("..", "internal", "session", "testdata", "cutoff", c+".edited.f"))
				if err != nil {
					t.Fatal(err)
				}
				cache := NewCache(CacheOptions{})
				analyzeCachedAt(t, cache, c+".f", string(from), nc.cfg, nc.cfg.Parallelism)
				checkDerived(t, cache, c+".f", string(to), nc.cfg, "cutoff "+c)
				applied["cutoff"]++
			}
		})
	}
	for _, kind := range []string{"formal-write", "common-write", "common-read", "call", "shifted", "far-apart", "append", "insert", "remove", "remove-called", "cutoff"} {
		if applied[kind] == 0 {
			t.Errorf("no %s edit applied", kind)
		}
	}
	t.Logf("edits applied: %v", applied)
}

// derivedEdits runs TestCacheDerivedEdits' script on one program under
// one configuration, counting the edits applied by kind.
func derivedEdits(t *testing.T, name, src string, cfg Config, applied map[string]int) {
	chunks, ok := memo.Split(name, src)
	var diags source.ErrorList
	prog := sem.Analyze(parser.ParseSource(name, src, &diags), &diags)
	if !ok || len(diags.Diags) > 0 || len(chunks) != len(prog.Order) {
		t.Fatalf("%d chunks for %d procedures, diagnostics %v", len(chunks), len(prog.Order), diags.Diags)
	}
	texts := func(unit int, text string) []string {
		out := make([]string, len(chunks))
		for i, c := range chunks {
			out[i] = c.Text
		}
		out[unit] = text
		return out
	}
	check := func(cache *Cache, label, text string) {
		t.Helper()
		checkDerived(t, cache, name, text, cfg, label)
	}

	// The last unit, and the middle one of those that can hold their
	// line count.
	last := len(chunks) - 1
	var held []int
	for i := range chunks[:last] {
		if strings.HasSuffix(chunks[i].Text, "\n\n") {
			held = append(held, i)
		}
	}
	far := -1 // the first unit that can hold its line count
	if len(held) > 0 {
		far = held[0]
		held = held[len(held)/2:][:1]
	}
	mid := len(chunks) / 2
	type site struct {
		unit int
		hold bool
		kind string // the edit kind counted, "" for the effect's own
	}
	sites := []site{{last, false, ""}, {mid, false, "shifted"}}
	for _, u := range held {
		sites = append(sites, site{u, true, ""})
	}
	cache := NewCache(CacheOptions{})
	analyzeCachedAt(t, cache, name, src, cfg, cfg.Parallelism)
	for _, st := range sites {
		p := prog.Order[st.unit]
		for _, e := range effectStatements(prog, p) {
			with, ok := insertLine(chunks[st.unit].Text, "      "+e.stmt, st.hold)
			if !ok {
				continue
			}
			without, _ := insertLine(chunks[st.unit].Text, "C removed "+e.kind, st.hold)
			check(cache, fmt.Sprintf("%s in %s (%s)", e.kind, p.Name, e.stmt), strings.Join(texts(st.unit, with), ""))
			check(cache, fmt.Sprintf("%s in %s, then removed", e.kind, p.Name), strings.Join(texts(st.unit, without), ""))
			kind := st.kind
			if kind == "" {
				kind = e.kind
			}
			applied[kind]++
		}
	}

	// Two edits far apart, in the first unit that can hold its line
	// count and in the last: every unit between them is kept.
	if far >= 0 && far < last-1 {
		a, b := effectStatements(prog, prog.Order[far]), effectStatements(prog, prog.Order[last])
		if len(a) > 0 && len(b) > 0 {
			if with, ok := insertLine(chunks[far].Text, "      "+a[0].stmt, true); ok {
				units := texts(far, with)
				units[last], _ = insertLine(chunks[last].Text, "      "+b[0].stmt, false)
				check(cache, fmt.Sprintf("%s in %s and %s in %s", a[0].kind, prog.Order[far].Name, b[0].kind, prog.Order[last].Name), strings.Join(units, ""))
				applied["far-apart"]++
			}
		}
	}

	// Structural edits, each derived from the one world a fresh cache
	// holds.
	derive := func(label, donor, text string) {
		t.Helper()
		cache := NewCache(CacheOptions{})
		analyzeCachedAt(t, cache, name, donor, cfg, cfg.Parallelism)
		check(cache, label, text)
		applied[label]++
	}
	derive("append", src, src+nqzUnit)
	caller, ok := insertLine(chunks[mid].Text, "      CALL NQZADD("+scalarActual(prog.Order[mid])+")", false)
	if !ok {
		t.Fatalf("cannot add a call to %s", prog.Order[mid].Name)
	}
	units := texts(mid, caller)
	inserted := strings.Join(slices.Insert(slices.Clone(units), mid, nqzUnit), "")
	derive("insert", src, inserted)
	derive("remove", inserted, src)

	// Removing NQZADD while mid still calls it is a semantic error:
	// the cache must not derive it and must report what the uncached
	// analysis reports.
	dangling := strings.Join(units, "")
	cache = NewCache(CacheOptions{})
	analyzeCachedAt(t, cache, name, inserted, cfg, cfg.Parallelism)
	c := cfg
	_, want := Analyze(name, dangling, c)
	c.Cache = cache
	_, got := Analyze(name, dangling, c)
	if want == nil || errStr(got) != errStr(want) || cache.Stats().Derived != 0 {
		t.Fatalf("remove-called: cached error %q, uncached %q, derived %d", errStr(got), errStr(want), cache.Stats().Derived)
	}
	applied["remove-called"]++
}

// TestCacheDerivedChainAcrossConfigs derives a chain of texts, each
// from the one before by an edit of LEAF in effects.f, and analyzes
// each under only some of four configurations: two share jump functions
// but not a solver, one shares them but not a domain, and one has jump
// functions of its own. A world's first analysis under a configuration
// then starts from products, tables, solutions and decisions carried
// across several edits it was never analyzed at. Every result must
// match an uncached analysis, and the last world's artifacts must refer
// to its own procedures once every configuration has analyzed it.
func TestCacheDerivedChainAcrossConfigs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "internal", "session", "testdata", "effects.f"))
	if err != nil {
		t.Fatal(err)
	}
	chunks, ok := memo.Split("effects.f", string(src))
	if !ok || len(chunks) != 4 {
		t.Fatal("effects.f does not split into 4 units")
	}
	base := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	cfgs := []Config{base, base, base, base}
	cfgs[1].Solver = BindingGraph
	cfgs[2].Domain = "interval"
	cfgs[3].Kind = PassThrough
	cache := NewCache(CacheOptions{})
	for _, c := range cfgs {
		analyzeCachedAt(t, cache, "effects.f", string(src), c, 1)
	}
	stmts := []string{"N = %d", "G = %d", "PRINT *, G + %d", "CALL OTHER(M + %d)", "M = N + %d"}
	var text string
	for i := range 3 * len(stmts) {
		stmt := fmt.Sprintf(stmts[i%len(stmts)], i)
		text = chunks[0].Text + chunks[1].Text + strings.Replace(chunks[2].Text, "CONTINUE", stmt, 1) + chunks[3].Text
		derived := cache.Stats().Derived
		for j, c := range cfgs {
			if j != i%len(cfgs) && (i+j)%3 != 0 {
				continue
			}
			if got, want := analyzeCachedAt(t, cache, "effects.f", text, c, 1), analyzeAt(t, "effects.f", text, c, 1); got != want {
				t.Fatalf("edit %d (%s), configuration %d: cached output diverges from uncached\nuncached:\n%s\ncached:\n%s", i, stmt, j, want, got)
			}
		}
		if got := cache.Stats().Derived; got != derived+1 {
			t.Fatalf("edit %d (%s): derived %d worlds, want 1", i, stmt, got-derived)
		}
	}
	for _, c := range cfgs {
		analyzeCachedAt(t, cache, "effects.f", text, c, 1)
	}
	auditWorld(t, cache, "effects.f", text, "the last edit")
}

// checkDerived analyzes text with the cache, which must derive its
// world from a cached one, and requires the output of an uncached
// analysis and a world whose artifacts refer to its own procedures
// only (auditWorld): the cache is used under cfg alone.
func checkDerived(t *testing.T, cache *Cache, name, text string, cfg Config, label string) {
	t.Helper()
	want := analyzeAt(t, name, text, cfg, cfg.Parallelism)
	before := cache.Stats().Derived
	if got := analyzeCachedAt(t, cache, name, text, cfg, cfg.Parallelism); got != want {
		t.Fatalf("%s: cached output diverges from uncached\nuncached:\n%s\ncached:\n%s", label, want, got)
	}
	if got := cache.Stats().Derived; got != before+1 {
		t.Fatalf("%s: derived %d worlds, want 1", label, got-before)
	}
	auditWorld(t, cache, name, text, label)
}

// auditWorld requires the cached world of text to refer to its own
// procedures only.
func auditWorld(t *testing.T, cache *Cache, name, text, label string) {
	t.Helper()
	w, _, ok := cache.c.Lookup([]memo.File{{Name: name, Src: text}})
	if !ok {
		t.Fatalf("%s: no world for the derived text", label)
	}
	w.Procs(func(where string, p *sem.Procedure) {
		t.Helper()
		if p == nil || w.Prog().Procs[p.Name] != p {
			t.Fatalf("%s: the world's %s holds a stale procedure", label, where)
		}
	})
}

// scalarActual returns p's first scalar integer formal or COMMON
// variable, or the literal 1.
func scalarActual(p *sem.Procedure) string {
	for _, s := range append(slices.Clone(p.Formals), p.Commons...) {
		if !s.IsArray && s.Type == ast.TypeInteger {
			return s.Name
		}
	}
	return "1"
}

// TestCacheConcurrentDerivation analyzes a base text once, then has
// goroutines analyze the base text and edited variants of it — one
// with a subroutine appended — at the same time (run under -race), so
// derivations from one donor run concurrently with analyses of the
// donor itself. Every result must match its uncached reference.
func TestCacheConcurrentDerivation(t *testing.T) {
	spec, ok := suite.ByName("linpackd")
	if !ok {
		t.Skip("no linpackd in suite")
	}
	src := suite.Source(spec)
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}
	variants := []string{src, src + nqzUnit}
	for i := 1; i <= 4; i++ {
		variants = append(variants, editSource(t, src, "= 10\n", fmt.Sprintf("= %d\n", 20+i)))
	}
	want := make([]string, len(variants))
	for i, v := range variants {
		want[i] = analyzeAt(t, "c.f", v, cfg, 2)
	}

	cache := NewCache(CacheOptions{})
	analyzeCachedAt(t, cache, "c.f", src, cfg, 2)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				i := (g + iter) % len(variants)
				c := cfg
				c.Parallelism = 2
				c.Cache = cache
				res, err := Analyze("c.f", variants[i], c)
				if err != nil {
					errs <- fmt.Sprintf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
				if fp := fingerprint(res); fp != want[i] {
					errs <- fmt.Sprintf("goroutine %d iter %d: variant %d diverges", g, iter, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := cache.Stats(); s.Derived == 0 {
		t.Errorf("no edited variant was derived from the base: %+v", s)
	}
}

// TestCacheCalleeSignatureChange verifies that editing a callee —
// changing what it returns — invalidates the caller's memoized jump
// functions even though the caller's own text is unchanged.
func TestCacheCalleeSignatureChange(t *testing.T) {
	const template = `      PROGRAM MAIN
      INTEGER K, F
      K = F(3)
      CALL USE(K)
      END

      INTEGER FUNCTION F(N)
      INTEGER N
      F = N * %d
      RETURN
      END

      SUBROUTINE USE(V)
      INTEGER V
      PRINT *, V
      RETURN
      END
`
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}
	cache := NewCache(CacheOptions{})
	for _, mul := range []int{2, 5} {
		src := fmt.Sprintf(template, mul)
		want := analyzeAt(t, "sig.f", src, cfg, 1)
		got := analyzeCachedAt(t, cache, "sig.f", src, cfg, 1)
		if got != want {
			t.Fatalf("mul=%d: cached output diverges from uncached\nuncached:\n%s\ncached:\n%s", mul, want, got)
		}
		if !strings.Contains(want, fmt.Sprintf("(V,%d", 3*mul)) {
			t.Fatalf("mul=%d: expected constant %d to reach USE; fingerprint:\n%s", mul, 3*mul, want)
		}
	}
}

// TestCacheEviction runs a cache with a byte budget far below one
// program's footprint: entries must cycle out (eviction counter moves),
// stores into evicted entries must be dropped silently, and every
// answer must stay byte-identical.
func TestCacheEviction(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Skip("no spec77 in suite")
	}
	src := suite.Source(spec)
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}
	want := analyzeAt(t, "spec77.f", src, cfg, 1)

	cache := NewCache(CacheOptions{MaxBytes: 256 << 10})
	for round := 0; round < 3; round++ {
		if got := analyzeCachedAt(t, cache, "spec77.f", src, cfg, 1); got != want {
			t.Fatalf("round %d under tiny budget diverges from uncached", round)
		}
	}
	s := cache.Stats()
	if s.Evictions == 0 {
		t.Errorf("no evictions under a 256 KiB budget: %+v", s)
	}
	// The in-use entry (here the whole-program world, whose estimated
	// footprint alone exceeds this tiny budget) is deliberately never
	// evicted, so Bytes may exceed MaxBytes — but only by about that one
	// entry's size, never by unbounded accumulation across rounds.
	if s.Bytes > 4<<20 {
		t.Errorf("cache bytes %d grew far beyond one program's footprint (budget %d)", s.Bytes, s.MaxBytes)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines analyzing
// a mix of identical and per-goroutine-edited sources (run under
// -race). Every result must match its uncached reference.
func TestCacheConcurrent(t *testing.T) {
	spec, ok := suite.ByName("adm")
	if !ok {
		spec = suite.Programs()[0]
	}
	src := suite.Source(spec)
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}

	variants := make([]string, 4)
	want := make([]string, 4)
	for i := range variants {
		variants[i] = src
		if i%2 == 1 {
			variants[i] = editSource(t, src, "= 10\n", fmt.Sprintf("= %d\n", 20+i))
		}
		want[i] = analyzeAt(t, "c.f", variants[i], cfg, 2)
	}

	cache := NewCache(CacheOptions{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				i := (g + iter) % 4
				c := cfg
				c.Parallelism = 2
				c.Cache = cache
				res, err := Analyze("c.f", variants[i], c)
				if err != nil {
					errs <- fmt.Sprintf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
				if fp := fingerprint(res); fp != want[i] {
					errs <- fmt.Sprintf("goroutine %d iter %d: output diverges", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCacheUnderDegradation drives the degradation chain (tiny solver
// budget) with a cache attached: degraded attempts must never poison
// the cache, and outputs must stay byte-identical to the uncached
// degraded run.
func TestCacheUnderDegradation(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Skip("no spec77 in suite")
	}
	src := suite.Source(spec)
	for _, budget := range []Budget{
		{MaxSolverSteps: 50},
		{MaxJFExprSize: 4},
		{MaxSolverSteps: 1},
	} {
		cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Budget: budget}
		want := analyzeAt(t, "spec77.f", src, cfg, 1)
		cache := NewCache(CacheOptions{})
		for round := 0; round < 2; round++ {
			if got := analyzeCachedAt(t, cache, "spec77.f", src, cfg, 1); got != want {
				t.Errorf("budget %+v round %d diverges from uncached", budget, round)
			}
		}
		// The same cache must also serve an unbudgeted run correctly.
		free := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}
		wantFree := analyzeAt(t, "spec77.f", src, free, 1)
		if got := analyzeCachedAt(t, cache, "spec77.f", src, free, 1); got != wantFree {
			t.Errorf("budget %+v: unbudgeted run through used cache diverges", budget)
		}
	}
}

// TestCacheFallbackOnErrors checks that erroneous and odd inputs take
// the uncached path and report the same diagnostics with and without a
// cache.
func TestCacheFallbackOnErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"      GARBAGE\n", // no unit header
		"      PROGRAM P\n      X = UNDEFVAR(1,\n      END\n", // parse error
		"      PROGRAM P\n      CALL NOSUCH(1)\n      END\n",  // sem error (undefined subroutine)
	}
	cfg := DefaultConfig()
	for i, src := range cases {
		cached := cfg
		cached.Cache = NewCache(CacheOptions{})
		_, err1 := Analyze("bad.f", src, cfg)
		_, err2 := Analyze("bad.f", src, cached)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Errorf("case %d: cached error %q, uncached %q", i, errStr(err2), errStr(err1))
		}
	}
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

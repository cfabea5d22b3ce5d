package ipcp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

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

// editOneUnit flips the constant in the first assignment-looking line
// it finds inside the named unit, producing a semantically different
// program that shares every other unit's text.
func editSource(src, marker, replacement string) (string, bool) {
	i := strings.Index(src, marker)
	if i < 0 {
		return src, false
	}
	return src[:i] + replacement + src[i+len(marker):], true
}

// TestCacheEditInvalidation re-analyzes edited variants of each suite
// program against a shared cache and checks every answer matches the
// uncached analysis of the same text — i.e. unit-level reuse never
// leaks stale constants into an edited program, and an edit to a callee
// invalidates its callers' artifacts (their keys include the callee
// closure).
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

			check("base", src)
			// Constant edits: every "= <n>" becomes a different constant.
			if edited, ok := editSource(src, "= 4", "= 7"); ok {
				check("const-edit", edited)
				check("base-again", src) // original artifacts must survive
			}
			// A structural edit to one unit (dropping a statement changes
			// that unit's summary, so callers' artifacts must miss).
			if edited, ok := editSource(src, "CALL ", "CONTINUE\n      CALL "); ok {
				check("struct-edit", edited)
			}
		})
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

	variant := func(i int) string {
		if i%2 == 0 {
			return src
		}
		edited, _ := editSource(src, "= 4", fmt.Sprintf("= %d", 5+i))
		return edited
	}
	want := make(map[int]string)
	for i := 0; i < 4; i++ {
		want[i] = analyzeAt(t, "c.f", variant(i), cfg, 2)
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
				res, err := Analyze("c.f", variant(i), c)
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

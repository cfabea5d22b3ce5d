package ipcp

import (
	"context"
	"testing"
	"time"

	"repro/internal/suite"
)

// statsByPhase indexes a result's phase stats by name.
func statsByPhase(r *Result) map[string]PhaseStat {
	m := make(map[string]PhaseStat, len(r.PhaseStats))
	for _, s := range r.PhaseStats {
		m[s.Phase] = s
	}
	return m
}

// TestPhaseStatsPopulated: every analysis reports a stat for each phase
// that ran, in execution order, and the per-phase wall times can never
// sum past the wall time of the whole call (phases are timed
// disjointly; the driver's own glue is the only unattributed slice).
func TestPhaseStatsPopulated(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Fatal("no suite program spec77")
	}
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	start := time.Now()
	res, err := Analyze("spec77.f", suite.Source(spec), cfg)
	total := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	want := []string{"parse", "sem", "graph", "jump", "solve", "subst", "assemble"}
	if len(res.PhaseStats) != len(want) {
		t.Fatalf("PhaseStats = %+v, want %d phases %v", res.PhaseStats, len(want), want)
	}
	var sum int64
	for i, s := range res.PhaseStats {
		if s.Phase != want[i] {
			t.Errorf("phase[%d] = %q, want %q", i, s.Phase, want[i])
		}
		if s.Runs != 1 {
			t.Errorf("%s: runs = %d, want 1", s.Phase, s.Runs)
		}
		if s.WallNs < 0 {
			t.Errorf("%s: negative wall %d", s.Phase, s.WallNs)
		}
		sum += s.WallNs
	}
	if sum > total.Nanoseconds() {
		t.Errorf("phase walls sum to %v, more than the whole call's %v", time.Duration(sum), total)
	}
	m := statsByPhase(res)
	for _, ph := range []string{"parse", "sem", "graph", "jump", "subst"} {
		if m[ph].Units == 0 {
			t.Errorf("%s: units = 0, want the program's unit count", ph)
		}
	}
	if m["solve"].Units == 0 {
		t.Error("solve: units = 0, want the jump-function evaluation count")
	}
}

// TestPhaseStatsShapeParity: the trace's shape — phase names, run and
// unit counts — is a function of the program and configuration alone,
// not of the worker count. Only wall times may differ between serial
// and parallel runs.
func TestPhaseStatsShapeParity(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Fatal("no suite program spec77")
	}
	src := suite.Source(spec)
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}

	shape := func(par int) []PhaseStat {
		c := cfg
		c.Parallelism = par
		res, err := Analyze("spec77.f", src, c)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		out := make([]PhaseStat, len(res.PhaseStats))
		for i, s := range res.PhaseStats {
			s.WallNs = 0 // timing is the one axis allowed to differ
			out[i] = s
		}
		return out
	}

	serial, parallel := shape(1), shape(4)
	if len(serial) != len(parallel) {
		t.Fatalf("phase count differs: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("phase[%d] shape differs:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}

// TestPhaseStatsMemo: with a cache attached the trace gains a lookup
// phase that subsumes the front end (the cache builds worlds through
// its own content-addressed parser, so parse and sem never appear).
// Only the warm run — reusing an already-built world — reports a memo
// hit there.
func TestPhaseStatsMemo(t *testing.T) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		t.Fatal("no suite program spec77")
	}
	cfg := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1,
		Cache: NewCache(CacheOptions{})}

	cold, err := Analyze("spec77.f", suite.Source(spec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm := statsByPhase(cold)
	if s, ok := cm["lookup"]; !ok || s.MemoHits != 0 {
		t.Errorf("cold lookup stat = %+v, want present with 0 hits (the build is a miss)", s)
	}

	warm, err := Analyze("spec77.f", suite.Source(spec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wm := statsByPhase(warm)
	if s := wm["lookup"]; s.MemoHits == 0 {
		t.Errorf("warm lookup stat = %+v, want a whole-world hit", s)
	}
	for _, run := range []struct {
		name string
		m    map[string]PhaseStat
	}{{"cold", cm}, {"warm", wm}} {
		for _, ph := range []string{"parse", "sem"} {
			if _, ok := run.m[ph]; ok {
				t.Errorf("%s run reports a %s stat; lookup subsumes the front end", run.name, ph)
			}
		}
		for _, ph := range []string{"graph", "solve", "assemble"} {
			if _, ok := run.m[ph]; !ok {
				t.Errorf("%s run missing %s stat", run.name, ph)
			}
		}
	}
}

// TestPhaseStatsExpiredContext: under a dead context every attempt of
// the degradation chain stops at the graph phase's deadline pre-check,
// so graph runs once per attempt, each run is booked as one degradation
// there, and jump and solve never run.
func TestPhaseStatsExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	full := DefaultConfig()
	full.Kind, full.Gated, full.Complete = Polynomial, true, true
	for _, c := range []struct {
		name string
		cfg  Config
		want int
	}{{"default", DefaultConfig(), 3}, {"polynomial+gated+complete", full, 6}} {
		res, err := AnalyzeContext(ctx, "robust.f", robustSrc, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Degradations) != c.want {
			t.Errorf("%s: %d degradations, want %d: %v", c.name, len(res.Degradations), c.want, res.Degradations)
		}
		m := statsByPhase(res)
		if g := m["graph"]; g.Runs != int64(len(res.Degradations)) || g.Degradations != g.Runs {
			t.Errorf("%s: graph stat = %+v, want runs = degradations = %d", c.name, g, len(res.Degradations))
		}
		for _, ph := range []string{"jump", "solve"} {
			if s, ok := m[ph]; ok {
				t.Errorf("%s: %s ran past a dead context: %+v", c.name, ph, s)
			}
		}
	}
}

// cloneTestSrc forces one profitable cloning round: SOLVE is called
// with two distinct constants, so 8 ∧ 512 = ⊥ without cloning.
const cloneTestSrc = `PROGRAM MAIN
CALL SOLVE(8)
CALL SOLVE(512)
END
SUBROUTINE SOLVE(N)
INTEGER N, S
S = N * 2
PRINT *, S
END
`

// TestCloningCacheEquivalence: AnalyzeWithCloning rides the same entry
// path as Analyze, so attaching Config.Cache must not change one byte
// of its output — results, clone decisions, or transformed source.
func TestCloningCacheEquivalence(t *testing.T) {
	run := func(cache *Cache) (string, *CloneInfo) {
		cfg := DefaultConfig()
		cfg.Cache = cache
		res, info, err := AnalyzeWithCloning("s.f", cloneTestSrc, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res), info
	}

	plainFP, plainInfo := run(nil)
	cache := NewCache(CacheOptions{})
	coldFP, coldInfo := run(cache)
	warmFP, warmInfo := run(cache)

	for _, c := range []struct {
		name string
		fp   string
		info *CloneInfo
	}{{"cold cached", coldFP, coldInfo}, {"warm cached", warmFP, warmInfo}} {
		if c.fp != plainFP {
			t.Errorf("%s result diverges from uncached:\n%s\nvs\n%s", c.name, c.fp, plainFP)
		}
		if c.info.Created != plainInfo.Created || c.info.Rounds != plainInfo.Rounds ||
			c.info.Source != plainInfo.Source {
			t.Errorf("%s clone info diverges: %+v vs %+v", c.name, c.info, plainInfo)
		}
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Errorf("warm cloning run recorded no cache hits: %+v", s)
	}
}

// TestCloningPhaseStats: the cloning driver contributes a clone phase
// whose unit count is the number of procedure bodies created.
func TestCloningPhaseStats(t *testing.T) {
	res, info, err := AnalyzeWithCloning("s.f", cloneTestSrc, DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	m := statsByPhase(res)
	s, ok := m["clone"]
	if !ok {
		t.Fatalf("no clone stat in %+v", res.PhaseStats)
	}
	if s.Units != int64(info.Created) {
		t.Errorf("clone units = %d, want Created = %d", s.Units, info.Created)
	}
	if s.Runs < 1 {
		t.Errorf("clone runs = %d, want >= 1", s.Runs)
	}
	if _, ok := m["subst"]; !ok {
		t.Error("final round's analysis phases missing from cloning result")
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
	"repro/ipcp"
)

// cold-corpus is the compiler-pass use: one client, closed loop, each
// operation one uncached ipcp.Analyze at the CLI's default parallelism.
// Parse, sem, jump and subst do nearly all the work and no cache is
// involved, so a layer that grows super-linearly with program size
// shows as a per-KLOC cost that rises from small to large.
//
// The corpus is every suite program plus generated programs in fixed
// numbers per size class, each under one configuration of a fixed mix;
// the seed sets the order in which the closed loop visits them.

// Generated programs per size class.
var coldGenerated = map[string]int{"small": 16, "medium": 8, "large": 4}

// coldCorpusSeed draws the generated programs and their configurations.
const coldCorpusSeed = 1986

// opLimit is the latency within which a closed-loop operation counts
// as served (ok_share).
const opLimit = 2 * time.Second

type coldEntry struct {
	name  string
	src   string
	class string
	lines int
	cfg   benchConfig
	orc   *oracle
	// First result, for the in-run repeat check.
	subst, evals int
	seen         bool
	lat          []float64 // every timed analysis, ms
}

type coldRunner struct {
	entries []*coldEntry
	order   []int
	skipped int
}

func (c *coldRunner) setup(seed int64, _ time.Duration) error {
	// The corpus is fixed; the seed orders it. Generated programs of one
	// class differ in cost by up to 2.5x, so drawing them per seed made
	// the medians follow the draw rather than the code.
	r := rand.New(rand.NewSource(coldCorpusSeed))
	for _, sp := range suite.Programs() {
		src := suite.Source(sp)
		c.entries = append(c.entries, &coldEntry{name: sp.Name + ".f", src: src})
	}
	for _, class := range classes {
		for i := 0; i < coldGenerated[class]; i++ {
			c.entries = append(c.entries, &coldEntry{
				name: progName("gen-"+class+"-", i),
				src:  genProgram(r.Int63(), class),
			})
		}
	}
	cfgs := configDraw(r, len(c.entries))
	names := make([]string, len(c.entries))
	texts := make([]string, len(c.entries))
	for i, e := range c.entries {
		e.lines = lineCount(e.src)
		e.class = classOf(e.lines)
		e.cfg = cfgs[i]
		names[i], texts[i] = e.name, e.src
	}
	orcs, skipped, err := buildOracles(names, texts)
	if err != nil {
		return err
	}
	for i, e := range c.entries {
		e.orc = orcs[i]
	}
	c.skipped = skipped
	c.order = rand.New(rand.NewSource(seed)).Perm(len(c.entries))
	return nil
}

func (c *coldRunner) close() {}

// layerNames are the six analysis layers the traced run attributes.
var layerNames = []string{"parse", "sem", "graph", "jump", "solve", "subst"}

// classTrace accumulates one size class's traced operations.
type classTrace struct {
	ops      int
	lines    int
	untraced time.Duration // ipcp.Analyze, timed alone
	traced   time.Duration // the traced decomposition's wall time
	layer    map[string]time.Duration
	allocs   map[string]float64
	phase    map[string]time.Duration // ipcp.Result.PhaseStats
}

func (c *coldRunner) measure(dur time.Duration, tr *tracer, rep *report) error {
	rep.notef("corpus: %d programs, %d skipped by the interpreter (step limit)", len(c.entries), c.skipped)
	okInLimit := 0
	byClass := map[string]*classTrace{}
	for _, cl := range classes {
		byClass[cl] = &classTrace{layer: map[string]time.Duration{}, allocs: map[string]float64{},
			phase: map[string]time.Duration{}}
	}
	n := len(c.entries)
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < n; i++ {
		e := c.entries[c.order[i%n]]
		rep.attempted++
		t0 := time.Now()
		res, err := ipcp.Analyze(e.name, e.src, e.cfg.public(0))
		d := time.Since(t0)
		if err != nil {
			rep.failed++
			rep.notef("%s: %v", e.name, err)
			continue
		}
		if v := e.orc.checkResult(res); v.wrong > 0 {
			rep.failed++
			rep.wrong += v.wrong
			rep.notef("%s (%s): %d constants contradicted by the interpreter, first %s", e.name, e.cfg.name, v.wrong, v.first)
			continue
		}
		evals, _, _ := res.Stats()
		if !e.seen {
			e.subst, e.evals, e.seen = res.SubstitutionCount(), evals, true
		} else if e.subst != res.SubstitutionCount() || e.evals != evals {
			rep.invalidf("%s: repeat analysis changed counts (subst %d→%d, evals %d→%d)",
				e.name, e.subst, res.SubstitutionCount(), e.evals, evals)
		}
		e.lat = append(e.lat, ms(d))
		if d <= opLimit {
			okInLimit++
		}
		if tr != nil {
			if err := c.traceOp(tr, int64(i+1), e, res, d, byClass[e.class]); err != nil {
				return err
			}
		}
	}
	peak := heap.finish()

	// Each program counts once, at its median over the passes: the
	// closed loop visits every program several times, and a program's
	// median shrugs off the passes a GC cycle or a noisy neighbour hit.
	var lat []float64
	var lines int
	var busy float64
	substTotal, evalTotal := 0, 0
	for _, e := range c.entries {
		substTotal += e.subst
		evalTotal += e.evals
		if len(e.lat) > 0 {
			m := median(e.lat)
			lat = append(lat, m)
			lines += e.lines
			busy += m
		}
	}
	kloc := float64(lines) / busy
	p50, p90 := bandQuantile(lat, 0.5, 0.1), bandQuantile(lat, 0.9, 0.05)
	rep.setE2E("op.p50_ms", p50, "ms")
	rep.setE2E("op.p90_ms", p90, "ms")
	rep.setE2E("kloc_s", kloc, "KLOC/s")
	rep.setE2E("ok_share", ratio(float64(okInLimit), float64(rep.attempted)), "ratio")
	rep.setE2E("peak_heap_mb", peak, "MB")
	rep.setE2E("subst_total", float64(substTotal), "uses")
	rep.setNamed("analyze.kloc_s", kloc, "KLOC/s")
	rep.setNamed("analyze.p50_ms", p50, "ms")
	rep.setNamed("analyze.p90_ms", p90, "ms")
	rep.setNamed("analyze.peak_heap_mb", peak, "MB")
	rep.setNamed("analyze.subst_total", float64(substTotal), "uses")
	rep.notef("%d analyses of %d programs, %d programs beyond p90", rep.attempted, len(lat), len(lat)/10)
	rep.exact["analyze.subst_total"] = float64(substTotal)
	rep.exact["solve.jf_evals"] = float64(evalTotal)
	if tr != nil {
		rep.setLayer("solve.jf_evals", float64(evalTotal), "count")
		c.attribute(byClass, rep)
	}
	return nil
}

// bandQuantile estimates the q-quantile of the per-program medians as
// the mean of those ranked within q±band. Host noise moves any single
// program's median by more than it moves the corpus, and with 41
// programs one order statistic is one program.
func bandQuantile(xs []float64, q, band float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(p float64) int {
		r := int(math.Round(p * float64(len(s)-1)))
		return min(max(r, 0), len(s)-1)
	}
	return mean(s[rank(q-band) : rank(q+band)+1])
}

// traceOp re-runs one operation through the layers' public functions,
// timing each call from here: parse, sem, the core driver (whose
// graph and solve shares are re-measured by calling callgraph/modref
// and the solver directly), and subst. The untraced ipcp.Analyze that
// preceded it supplies the comparison for overhead and PhaseStats.
func (c *coldRunner) traceOp(tr *tracer, op int64, e *coldEntry, res *ipcp.Result, untraced time.Duration, ct *classTrace) error {
	cc, err := e.cfg.core(0)
	if err != nil {
		return err
	}
	type step struct {
		d time.Duration
		a uint64
	}
	timed := func(name string, parent int64, f func()) (step, int64) {
		a0 := allocs()
		t0 := time.Now()
		f()
		t1 := time.Now()
		a := allocs() - a0
		return step{t1.Sub(t0), a}, tr.record(op, parent, name, t0, t1, a)
	}
	opStart := time.Now()
	var diags source.ErrorList
	var file *ast.File
	var prog *sem.Program
	parse, _ := timed("parse", 0, func() { file = parser.ParseSource(e.name, e.src, &diags) })
	sm, _ := timed("sem", 0, func() { prog = sem.AnalyzeParallel(file, &diags, 0) })
	if diags.HasErrors() {
		return fmt.Errorf("%s: %v", e.name, diags.Err())
	}
	var cg *callgraph.Graph
	graph, _ := timed("graph", 0, func() {
		cg = callgraph.Build(prog)
		modref.Compute(cg)
	})
	var a *core.Analysis
	coreStep, coreID := timed("core", 0, func() { a = core.AnalyzeProgram(prog, cc) })
	var serr error
	solve, _ := timed("solve", coreID, func() { _, _, serr = a.RunSolver(a.Config.Solver) })
	if serr != nil {
		return fmt.Errorf("%s: solver: %w", e.name, serr)
	}
	var substTotal int
	sub, _ := timed("subst", 0, func() { substTotal = a.Substitute().Total })
	opEnd := time.Now()
	wall := opEnd.Sub(opStart)
	tr.record(op, 0, "op:"+e.name, opStart, opEnd, 0)

	if substTotal != res.SubstitutionCount() {
		return fmt.Errorf("%s: traced path found %d substitutions, ipcp.Analyze %d (configuration mismatch)",
			e.name, substTotal, res.SubstitutionCount())
	}
	rounds := a.Stats.Rounds
	if rounds < 1 {
		rounds = 1
	}
	// Complete propagation runs jump and solve once per round; the
	// re-run solver reproduces one round.
	solveAll := step{solve.d * time.Duration(rounds), solve.a * uint64(rounds)}
	jump := step{coreStep.d - graph.d - solveAll.d, 0}
	if coreStep.a > graph.a+solveAll.a {
		jump.a = coreStep.a - graph.a - solveAll.a
	}
	steps := map[string]step{"parse": parse, "sem": sm, "graph": graph, "jump": jump, "solve": solveAll, "subst": sub}
	ct.ops++
	ct.lines += e.lines
	ct.untraced += untraced
	ct.traced += wall
	for name, s := range steps {
		ct.layer[name] += s.d
		ct.allocs[name] += float64(s.a)
	}
	for _, ps := range res.PhaseStats {
		ct.phase[ps.Phase] += time.Duration(ps.WallNs)
	}
	return nil
}

// attribute turns the per-class sums into per-KLOC layer metrics and
// runs the attribution checks: the six layers must add up to the
// untraced time within the tracing overhead, and each layer must agree
// with ipcp.Result.PhaseStats, so a mis-attributed layer fails loudly.
func (c *coldRunner) attribute(byClass map[string]*classTrace, rep *report) {
	var untracedAll, tracedAll time.Duration
	for _, cl := range classes {
		ct := byClass[cl]
		if ct.ops == 0 {
			rep.invalidf("traced run analyzed no %s program", cl)
			continue
		}
		kloc := float64(ct.lines) / 1000
		var sum time.Duration
		for _, l := range layerNames {
			sum += ct.layer[l]
			rep.setLayer(l+".ms_per_kloc."+cl, ms(ct.layer[l])/kloc, "ms/KLOC")
			rep.setLayer(l+".allocs_per_kloc."+cl, ct.allocs[l]/kloc, "allocs/KLOC")
		}
		overhead := ct.traced - ct.untraced
		diff := sum - ct.untraced
		// A tenth of slack on top of the overhead: the race detector slows
		// the ipcp pipeline's own bookkeeping more than the bare layers.
		tol := absDur(overhead) + ct.untraced/10
		rep.notef("%s: %d ops, untraced %.2f ms/op, six layers %.2f ms/op, overhead %.2f ms/op",
			cl, ct.ops, ms(ct.untraced)/float64(ct.ops), ms(sum)/float64(ct.ops), ms(overhead)/float64(ct.ops))
		if absDur(diff) > tol {
			rep.invalidf("%s: layers sum to %.1f ms but untraced analyses took %.1f ms (tolerance %.1f ms)",
				cl, ms(sum), ms(ct.untraced), ms(tol))
		}
		for _, l := range layerNames {
			o, p := ct.layer[l], ct.phase[l]
			bound := 0.35*float64(max(o, p)) + float64(time.Duration(ct.ops)*50*time.Microsecond)
			if math.Abs(float64(o-p)) > bound {
				rep.invalidf("%s: layer %s measured %.2f ms from outside but PhaseStats say %.2f ms",
					cl, l, ms(o), ms(p))
			}
		}
		untracedAll += ct.untraced
		tracedAll += ct.traced
	}
	if untracedAll > 0 {
		rep.setLayer("trace.overhead_pct.cold", 100*ratio(float64(tracedAll-untracedAll), float64(untracedAll)), "%")
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

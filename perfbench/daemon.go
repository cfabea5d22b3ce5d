package main

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"repro/ipcp"
)

// daemon-edits is the compiler-daemon use: one client, closed loop,
// against one resident session on a large generated program
// (polynomial jump functions, serial, as the server runs sessions).
// Each operation is one single-unit replace edit followed by
// Session.Result. The edited unit is drawn uniformly over the program,
// so the blast radius (the unit and its transitive callers) varies with
// the unit's place in the call graph; about one edit in eight renames a
// formal, which changes the unit's interface and forces the full
// rebuild. This path skips the whole-program front end and leans on
// session state, value-context replay and a one-unit re-parse.

const (
	// daemonScript bounds the edits one run can apply; the run stops
	// early if it gets through all of them.
	daemonScript = 4000
	// daemonCheckEvery samples the results checked against the
	// interpreter: every such edit's text is interpreted at set-up.
	daemonCheckEvery = 40
	// daemonExact is the edit prefix whose counts must repeat exactly
	// for a seed; every run applies at least this many edits.
	daemonExact = 100
	// renamesPerBlock of every renameBlock edits change an interface.
	renamesPerBlock = 3
)

// daemonProgramSeed draws the session's program; the seed drives only
// the edit stream, so the resident program's size and shape are the
// same in every run.
const daemonProgramSeed = 1986

// Blast-radius classes for session.edit_ms.*: the edited unit alone,
// up to four units, and wider. The generated program's call graph is
// shallow (a fast edit invalidates about three units on average), so
// these bounds split the fast edits into populated classes.
const blastMidMax = 4

type daemonStep struct {
	unit   int
	text   string
	rename bool
	orc    *oracle // set on sampled steps
}

type daemonRunner struct {
	src     string
	lines   int
	sess    *ipcp.Session
	steps   []daemonStep
	skipped int
}

func daemonConfig() ipcp.Config {
	cfg := ipcp.DefaultConfig()
	cfg.Kind = ipcp.Polynomial
	cfg.Parallelism = 1
	return cfg
}

func (d *daemonRunner) setup(seed int64, _ time.Duration) error {
	r := rand.New(rand.NewSource(seed))
	d.src = genProgram(daemonProgramSeed, "large")
	d.lines = lineCount(d.src)
	units := splitUnits("daemon.f", d.src)
	var names, texts []string
	var sampled []int
	var renames []bool
	for len(d.steps) < daemonScript {
		if len(renames) == 0 {
			renames = dealRenames(r)
		}
		rename := renames[0]
		renames = renames[1:]
		var u int
		var text string
		for ok := false; !ok; {
			u = r.Intn(len(units))
			if rename {
				text, ok = renameFormal(units[u])
			} else {
				text, ok = tweakConstant(r, units[u])
			}
		}
		units[u] = text
		d.steps = append(d.steps, daemonStep{unit: u, text: text, rename: rename})
		if (len(d.steps)-1)%daemonCheckEvery == 0 {
			sampled = append(sampled, len(d.steps)-1)
			names = append(names, "daemon.f")
			texts = append(texts, strings.Join(units, ""))
		}
	}
	orcs, skipped, err := buildOracles(names, texts)
	if err != nil {
		return err
	}
	for i, s := range sampled {
		d.steps[s].orc = orcs[i]
	}
	d.skipped = skipped
	d.sess, err = ipcp.OpenSession(context.Background(), "daemon.f", d.src, daemonConfig())
	return err
}

// renameBlock is the span over which renames are dealt in exact share,
// so any prefix of the script a run gets through has that share too.
const renameBlock = 25

// dealRenames returns one block of rename flags, renamesPerBlock of
// them set, in random order.
func dealRenames(r *rand.Rand) []bool {
	out := make([]bool, renameBlock)
	for i := 0; i < renamesPerBlock; i++ {
		out[i] = true
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (d *daemonRunner) close() {}

func (d *daemonRunner) measure(dur time.Duration, tr *tracer, rep *report) error {
	ctx := context.Background()
	rep.notef("session program: %d lines, %d units; %d sampled texts skipped by the interpreter",
		d.lines, d.sess.NumUnits(), d.skipped)
	var lat, resultMs []float64
	var blast1, blastMid, blastWide, rebuild []float64
	var lines int
	var busy, traceCost time.Duration
	okInLimit, fast, blastUnits, substTotal := 0, 0, 0, 0
	var jumpReused, substReused, fastUnits int
	before := d.sess.Stats()
	heap := startHeapSampler()
	start := time.Now()
	for i, st := range d.steps {
		if i >= daemonExact && time.Since(start) >= dur {
			break
		}
		rep.attempted++
		t0 := time.Now()
		info, err := d.sess.Edit(ctx, []ipcp.UnitEdit{{Op: "replace", Index: st.unit, Text: st.text}})
		t1 := time.Now()
		if err != nil {
			rep.failed++
			rep.notef("edit %d: %v", i, err)
			continue
		}
		res, err := d.sess.Result()
		t2 := time.Now()
		if err != nil {
			rep.failed++
			rep.notef("result %d: %v", i, err)
			continue
		}
		if tr != nil {
			op := int64(i + 1)
			root := tr.record(op, 0, "op:edit", t0, t2, 0)
			tr.record(op, root, "session.Edit", t0, t1, 0)
			tr.record(op, root, "session.Result", t1, t2, 0)
			traceCost += time.Since(t2)
		}
		if v := st.orc.checkResult(res); v.wrong > 0 {
			rep.failed++
			rep.wrong += v.wrong
			rep.notef("edit %d: %d constants contradicted by the interpreter, first %s", i, v.wrong, v.first)
			continue
		}
		if st.rename == info.FastPath {
			rep.invalidf("edit %d: rename=%v but fast path=%v", i, st.rename, info.FastPath)
		}
		total := t2.Sub(t0)
		lat = append(lat, ms(total))
		resultMs = append(resultMs, ms(t2.Sub(t1)))
		lines += d.lines
		busy += total
		if total <= opLimit {
			okInLimit++
		}
		editMs := ms(t1.Sub(t0))
		switch {
		case !info.FastPath:
			rebuild = append(rebuild, editMs)
		case info.UnitsInvalidated <= 1:
			blast1 = append(blast1, editMs)
		case info.UnitsInvalidated <= blastMidMax:
			blastMid = append(blastMid, editMs)
		default:
			blastWide = append(blastWide, editMs)
		}
		if info.FastPath {
			jumpReused += info.JumpReused
			substReused += info.SubstReused
			fastUnits += info.Units
		}
		if i < daemonExact {
			if info.FastPath {
				fast++
				blastUnits += info.UnitsInvalidated
			}
			substTotal += res.SubstitutionCount()
		}
	}
	peak := heap.finish()
	after := d.sess.Stats()
	bytes := d.sess.MemoryBytes()

	hits := float64(after.ContextHits - before.ContextHits)
	misses := float64(after.ContextMisses - before.ContextMisses)
	rep.setE2E("op.p50_ms", median(lat), "ms")
	rep.setE2E("op.p90_ms", quantile(lat, 0.9), "ms")
	rep.setE2E("kloc_s", float64(lines)/1000/busy.Seconds(), "KLOC/s")
	rep.setE2E("ok_share", ratio(float64(okInLimit), float64(rep.attempted)), "ratio")
	rep.setE2E("peak_heap_mb", peak, "MB")
	rep.setE2E("subst_total", float64(substTotal), "uses")
	rep.setNamed("edit.p50_ms", median(lat), "ms")
	rep.setNamed("edit.p99_ms", quantile(lat, 0.99), "ms")
	rep.setNamed("session.resident_mb", float64(bytes)/(1<<20), "MB")
	rep.notef("%d edits, %d beyond p99; blast classes: 1=%d mid=%d wide=%d rebuild=%d",
		len(lat), len(lat)/100, len(blast1), len(blastMid), len(blastWide), len(rebuild))
	fastShare := float64(fast) / float64(daemonExact)
	blastMean := ratio(float64(blastUnits), float64(fast))
	rep.exact["session.fast_path_share"] = fastShare
	rep.exact["session.blast_units_mean"] = blastMean
	rep.exact["session.subst_total"] = float64(substTotal)
	if tr == nil {
		return nil
	}
	rep.setLayer("session.edit_ms.blast1", median(blast1), "ms")
	rep.setLayer("session.edit_ms.blast_mid", median(blastMid), "ms")
	rep.setLayer("session.edit_ms.blast_wide", median(blastWide), "ms")
	rep.setLayer("session.rebuild_ms", median(rebuild), "ms")
	rep.setLayer("session.result_ms", median(resultMs), "ms")
	rep.setLayer("session.fast_path_share", fastShare, "ratio")
	rep.setLayer("session.blast_units_mean", blastMean, "units")
	rep.setLayer("session.context_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.setLayer("session.jump_reuse_ratio", ratio(float64(jumpReused), float64(fastUnits)), "ratio")
	rep.setLayer("session.subst_reuse_ratio", ratio(float64(substReused), float64(fastUnits)), "ratio")
	rep.setLayer("session.bytes", float64(bytes), "bytes")
	// The spans are taken around calls the untraced run makes anyway,
	// so the overhead is exactly the time spent recording them.
	rep.setLayer("trace.overhead_pct.daemon", 100*ratio(float64(traceCost), float64(busy)), "%")
	return nil
}

// Command ipcp-bench measures the analysis pipeline and writes a
// machine-readable baseline, BENCH_ipcp.json, so regressions show up as
// a diff rather than a feeling. It records ns/op, allocs/op, and (for
// byte-oriented phases) MB/s per exhibit, plus the wall-clock time of
// the full Table 2 sweep run serially and in parallel and the resulting
// speedup.
//
// Usage:
//
//	ipcp-bench                      # write BENCH_ipcp.json in the cwd
//	ipcp-bench -out path.json
//	ipcp-bench -min-speedup 2      # also gate on sweep speedup (needs >= 4 CPUs)
//	ipcp-bench -baseline BENCH_ipcp.json  # fail on >10% allocs/op or bytes/op regression
//	ipcp-bench -quick               # short iterations for CI smoke runs
//	ipcp-bench -trace               # print one analysis's per-phase trace as JSON and exit
//
// Gates:
//
//   - With 4 or more CPUs the parallel sweep must beat the serial one
//     (speedup > 1.0), always; -min-speedup raises that floor. Below 4
//     CPUs the gate is skipped with a notice: on a one- or two-core
//     machine the parallel sweep cannot be expected to win, and the
//     paper's determinism guarantee (identical output at every
//     parallelism) is what the tests enforce instead.
//   - With -baseline, neither the allocs/op nor the bytes/op of
//     table2/analyze-serial may grow more than 10% over the committed
//     baseline.
//   - The incremental-analysis exhibits must show their designed wins
//     (warm-identical and warm-one-edit each >= 5x over cold); skipped
//     under -quick, whose short runs are too noisy to gate on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jump"
	"repro/internal/lattice"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/report"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
	"repro/ipcp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exhibit is one benchmark's measurement.
type Exhibit struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	// JFEvalsPerOp is the jump-function evaluation count of one
	// iteration — the paper's propagation cost unit. Set on the solver
	// and configuration ablation exhibits, where it is deterministic
	// (measured once, not averaged).
	JFEvalsPerOp float64 `json:"jf_evals_per_op,omitempty"`
	// SubstPerOp is the substitutable-use count of one analysis — the
	// paper's effectiveness metric. Set on the configuration ablation
	// exhibits, where the point is how MOD information or a tightened
	// expression budget moves effectiveness, not just cost.
	SubstPerOp float64 `json:"subst_per_op,omitempty"`
	// FactsPerOp is the number of entry facts an abstract domain proved
	// (formals plus globals, all procedures). Set on the domain/*
	// exhibits.
	FactsPerOp float64 `json:"facts_per_op,omitempty"`
}

// Sweep records the serial-vs-parallel Table 2 sweep comparison.
// Workers is the resolved worker count the parallel sweep actually ran
// with (Parallelism 0 resolves to one worker per CPU), so a baseline
// taken on a small machine cannot masquerade as a parallelism result.
type Sweep struct {
	Workers    int     `json:"workers"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	// Note explains measurements that were elided rather than taken: on
	// a single-CPU machine the "parallel" sweep resolves to the serial
	// code path, so re-measuring it records scheduler noise as a bogus
	// speedup (or slowdown); the baseline pins 1.0 instead.
	Note string `json:"note,omitempty"`
}

// Baseline is the BENCH_ipcp.json document.
type Baseline struct {
	GoVersion  string    `json:"go_version"`
	GoMaxProcs int       `json:"gomaxprocs"`
	CPUs       int       `json:"cpus"`
	Exhibits   []Exhibit `json:"exhibits"`
	Sweep      Sweep     `json:"sweep"`
}

func run(args []string, stdout, stderr io.Writer) (status int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "ipcp-bench: internal error: %v\n", r)
			status = 1
		}
	}()

	fs := flag.NewFlagSet("ipcp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("out", "BENCH_ipcp.json", "where to write the baseline ('-' for stdout)")
		minSpeedup = fs.Float64("min-speedup", 0, "fail unless the parallel sweep is at least this much faster (0 = no gate; skipped below 4 CPUs)")
		baseline   = fs.String("baseline", "", "committed baseline JSON to gate allocation regressions against")
		quickFlag  = fs.Bool("quick", false, "short fixed-iteration runs for CI smoke tests (no perf gates)")
		traceFlag  = fs.Bool("trace", false, "print one analysis's per-phase trace as JSON and exit (no benchmarks)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "ipcp-bench: unexpected argument %q\n", fs.Arg(0))
		return 1
	}
	quick = *quickFlag
	if *traceFlag {
		return traceMode(stdout, stderr)
	}

	base, err := measure(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ipcp-bench:", err)
		return 1
	}

	blob, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "ipcp-bench:", err)
		return 1
	}
	blob = append(blob, '\n')
	if *out == "-" {
		if _, err := stdout.Write(blob); err != nil {
			fmt.Fprintln(stderr, "ipcp-bench:", err)
			return 1
		}
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(stderr, "ipcp-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d exhibits, sweep speedup %.2fx on %d workers)\n",
			*out, len(base.Exhibits), base.Sweep.Speedup, base.Sweep.Workers)
	}

	// Speedup gate: with enough cores the parallel sweep must actually
	// win (floor 1.0), and -min-speedup raises the bar from there. The
	// floor applies even without -min-speedup, so a parallelism
	// regression cannot hide behind a forgotten flag.
	floor := 1.0
	if *minSpeedup > floor {
		floor = *minSpeedup
	}
	if base.GoMaxProcs < 4 {
		fmt.Fprintf(stdout, "speedup gate skipped: GOMAXPROCS=%d < 4\n", base.GoMaxProcs)
	} else if base.Sweep.Speedup < floor {
		fmt.Fprintf(stderr, "ipcp-bench: sweep speedup %.2fx below required %.2fx\n",
			base.Sweep.Speedup, floor)
		return 1
	} else {
		fmt.Fprintf(stdout, "speedup gate passed: %.2fx >= %.2fx\n", base.Sweep.Speedup, floor)
	}

	if *baseline != "" {
		if err := gateAllocs(stdout, *baseline, base); err != nil {
			fmt.Fprintln(stderr, "ipcp-bench:", err)
			return 1
		}
	}
	if !quick {
		if err := gateMemo(stdout, base); err != nil {
			fmt.Fprintln(stderr, "ipcp-bench:", err)
			return 1
		}
	}
	return 0
}

// TraceDoc is the -trace output: one representative analysis's
// per-phase statistics, the machine-readable counterpart of `ipcp
// -trace` (and the document CI's schema check validates).
type TraceDoc struct {
	Program string           `json:"program"`
	Config  string           `json:"config"`
	Phases  []ipcp.PhaseStat `json:"phases"`
}

// traceMode analyzes the Table 2 program once at the benchmark's serial
// configuration and writes its phase trace as JSON.
func traceMode(stdout, stderr io.Writer) int {
	spec, ok := suite.ByName("spec77")
	if !ok {
		fmt.Fprintln(stderr, "ipcp-bench: no suite program spec77")
		return 1
	}
	cfg := ipcp.Config{Kind: ipcp.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	res, err := ipcp.Analyze("spec77.f", suite.Source(spec), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ipcp-bench:", err)
		return 1
	}
	doc := TraceDoc{Program: "spec77", Config: "polynomial", Phases: res.PhaseStats}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "ipcp-bench:", err)
		return 1
	}
	if _, err := stdout.Write(append(blob, '\n')); err != nil {
		fmt.Fprintln(stderr, "ipcp-bench:", err)
		return 1
	}
	return 0
}

// findExhibit returns the named exhibit, or nil.
func findExhibit(b *Baseline, name string) *Exhibit {
	for i := range b.Exhibits {
		if b.Exhibits[i].Name == name {
			return &b.Exhibits[i]
		}
	}
	return nil
}

// gateAllocs fails when the hot analysis path allocates more than 10%
// over the committed baseline, in allocations or in bytes, or — in full
// (non-quick) runs, whose counts come from the testing harness rather
// than noisy MemStats deltas — when its allocations exceed the absolute
// post-arena ceiling. ns/op is too machine-dependent to gate in CI;
// allocation counts and bytes are deterministic enough to hold the
// line.
func gateAllocs(stdout io.Writer, path string, cur *Baseline) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("alloc gate: %w", err)
	}
	var committed Baseline
	if err := json.Unmarshal(blob, &committed); err != nil {
		return fmt.Errorf("alloc gate: parse %s: %w", path, err)
	}
	const name = "table2/analyze-serial"
	// absCap is the arena-era ceiling: the flat-IR pipeline analyzes the
	// Table 2 program in ~35k allocations, so crossing 50k means a
	// structural regression (a map or pointer-tree crept back into a hot
	// path), not drift.
	const absCap = 50000
	was, now := findExhibit(&committed, name), findExhibit(cur, name)
	if was == nil || was.AllocsPerOp == 0 || was.BytesPerOp == 0 {
		return fmt.Errorf("alloc gate: %s has no %s allocs and bytes baseline", path, name)
	}
	if now == nil {
		return fmt.Errorf("alloc gate: current run has no %s exhibit", name)
	}
	limit := was.AllocsPerOp + was.AllocsPerOp/10
	if now.AllocsPerOp > limit {
		return fmt.Errorf("alloc gate: %s allocs/op %d exceeds baseline %d by more than 10%%",
			name, now.AllocsPerOp, was.AllocsPerOp)
	}
	bytesLimit := was.BytesPerOp + was.BytesPerOp/10
	if now.BytesPerOp > bytesLimit {
		return fmt.Errorf("alloc gate: %s bytes/op %d exceeds baseline %d by more than 10%%",
			name, now.BytesPerOp, was.BytesPerOp)
	}
	if !quick && now.AllocsPerOp >= absCap {
		return fmt.Errorf("alloc gate: %s allocs/op %d exceeds absolute cap %d",
			name, now.AllocsPerOp, absCap)
	}
	fmt.Fprintf(stdout, "alloc gate passed: %s %d allocs/op (baseline %d, limit %d, cap %d), %d bytes/op (baseline %d, limit %d)\n",
		name, now.AllocsPerOp, was.AllocsPerOp, limit, absCap, now.BytesPerOp, was.BytesPerOp, bytesLimit)
	return nil
}

// gateMemo asserts the incremental-analysis cache delivers its designed
// wins: a warm identical re-analysis, and a re-analysis after one edited
// unit, each at least 5x cheaper than a cold one. The edited text takes
// the replace step from the cached world, the same derivation a session
// delta edit runs, so warm-one-edit is held to warm-identical's floor;
// what it costs beyond a session delta is the cache round trip itself
// (splitting, hashing, finding the donor), not a second mechanism.
func gateMemo(stdout io.Writer, base *Baseline) error {
	cold := findExhibit(base, "memo/cold")
	warm := findExhibit(base, "memo/warm-identical")
	edit := findExhibit(base, "memo/warm-one-edit")
	if cold == nil || warm == nil || edit == nil {
		return fmt.Errorf("memo gate: exhibits missing")
	}
	if warm.NsPerOp <= 0 || edit.NsPerOp <= 0 {
		return fmt.Errorf("memo gate: degenerate timings")
	}
	warmX := cold.NsPerOp / warm.NsPerOp
	editX := cold.NsPerOp / edit.NsPerOp
	if warmX < 5 {
		return fmt.Errorf("memo gate: warm-identical only %.2fx faster than cold (need >= 5x)", warmX)
	}
	if editX < 5 {
		return fmt.Errorf("memo gate: warm-one-edit only %.2fx faster than cold (need >= 5x)", editX)
	}
	fmt.Fprintf(stdout, "memo gate passed: warm-identical %.1fx, warm-one-edit %.1fx over cold\n",
		warmX, editX)
	return nil
}

// quick selects short fixed-iteration runs (CI smoke mode) over the
// full testing.Benchmark calibration.
var quick bool

// bench runs one benchmark body — "do the work n times, or fail" — and
// converts the measurement into an Exhibit. bytes, when non-zero, is
// the input size an iteration processes, and yields MB/s.
func bench(name string, bytes int64, f func(n int) error) Exhibit {
	if quick {
		return quickBench(name, bytes, f)
	}
	return exhibitOf(name, bytes, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(bytes)
		if err := f(b.N); err != nil {
			b.Fatal(err)
		}
	}))
}

// benchOps is bench over an operation run once per iteration.
func benchOps(name string, bytes int64, op func() error) Exhibit {
	return bench(name, bytes, func(n int) error {
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	})
}

// exhibitOf records one testing.Benchmark result.
func exhibitOf(name string, bytes int64, r testing.BenchmarkResult) Exhibit {
	e := Exhibit{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if bytes > 0 && r.T > 0 {
		e.MBPerSec = float64(bytes*int64(r.N)) / 1e6 / r.T.Seconds()
	}
	return e
}

// quickBench is bench without the harness: one warm-up iteration, then
// a short timed run with manual allocation accounting. The numbers are
// noisy — quick mode exists to prove the harness runs end to end in CI,
// not to gate performance.
func quickBench(name string, bytes int64, f func(n int) error) Exhibit {
	const n = 3
	if err := f(1); err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := f(n); err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	e := Exhibit{
		Name:        name,
		Iterations:  n,
		NsPerOp:     float64(dur.Nanoseconds()) / n,
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
	if bytes > 0 && dur > 0 {
		e.MBPerSec = float64(bytes*n) / 1e6 / dur.Seconds()
	}
	return e
}

// benchPrimed is bench for an operation that needs fresh state each
// time: prime builds the state and returns the operation. Priming is
// neither timed nor counted, except in -quick's smoke runs.
func benchPrimed(name string, bytes int64, prime func() (func() error, error)) Exhibit {
	run := func(n int, pause, resume func()) error {
		for i := 0; i < n; i++ {
			pause()
			op, err := prime()
			resume()
			if err == nil {
				err = op()
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if quick {
		return quickBench(name, bytes, func(n int) error { return run(n, func() {}, func() {}) })
	}
	return exhibitOf(name, bytes, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(bytes)
		if err := run(b.N, b.StopTimer, b.StartTimer); err != nil {
			b.Fatal(err)
		}
	}))
}

// analyzeExhibit measures the whole public pipeline (parse, sem, jump
// functions, propagation) on one suite program at a given parallelism.
func analyzeExhibit(name, progName string, cfg ipcp.Config) (Exhibit, error) {
	spec, ok := suite.ByName(progName)
	if !ok {
		return Exhibit{}, fmt.Errorf("no suite program %s", progName)
	}
	src := suite.Source(spec)
	if _, err := ipcp.Analyze(progName+".f", src, cfg); err != nil {
		return Exhibit{}, err
	}
	return bench(name, int64(len(src)), func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := ipcp.Analyze(progName+".f", src, cfg); err != nil {
				return err
			}
		}
		return nil
	}), nil
}

// editUnit returns src with one novel statement inserted into its last
// program unit — a distinct program each call, sharing every other
// unit's text with the original. This is the "developer edited one
// subroutine and re-analyzed" scenario, with a fresh constant per call
// so no previous analysis of the edited text can be a whole-result hit.
func editUnit(src string, seq int) string {
	i := strings.LastIndex(src, "\nEND")
	if i < 0 {
		return src
	}
	return fmt.Sprintf("%s\nNQZED = %d%s", src[:i], 1000+seq, src[i:])
}

// nqzUnit is a subroutine spec77 does not define, appended by the
// add-unit exhibits.
const nqzUnit = "      SUBROUTINE NQZADD(N)\n      INTEGER N\n      N = 3\n      END\n"

// memoExhibits measures the incremental-analysis cache on the Table 2
// program: a cold analysis populating a fresh cache each iteration, a
// warm re-analysis of identical source against a primed cache, a warm
// re-analysis after an edit to one unit, and re-analyses after edits
// that move units or add one.
func memoExhibits() ([]Exhibit, error) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		return nil, fmt.Errorf("no suite program spec77")
	}
	src := suite.Source(spec)
	cfg := ipcp.Config{Kind: ipcp.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	analyze := func(text string, cache *ipcp.Cache) error {
		c := cfg
		c.Cache = cache
		_, err := ipcp.Analyze("spec77.f", text, c)
		return err
	}

	out := []Exhibit{benchOps("memo/cold", int64(len(src)), func() error {
		return analyze(src, ipcp.NewCache(ipcp.CacheOptions{}))
	})}

	warmCache := ipcp.NewCache(ipcp.CacheOptions{})
	if err := analyze(src, warmCache); err != nil {
		return nil, err
	}
	out = append(out, benchOps("memo/warm-identical", int64(len(src)), func() error {
		return analyze(src, warmCache)
	}))

	editCache := ipcp.NewCache(ipcp.CacheOptions{MaxBytes: 256 << 20})
	if err := analyze(src, editCache); err != nil {
		return nil, err
	}
	seq := 0
	out = append(out, benchOps("memo/warm-one-edit", int64(len(src)), func() error {
		seq++
		return analyze(editUnit(src, seq), editCache)
	}))

	// Edits the replace step takes beyond a line-preserving one, each
	// analyzed against a fresh cache holding spec77 alone: a statement
	// added to the middle unit, which moves every later unit down a
	// line, and a subroutine appended to the file.
	chunks, _ := memo.Split("spec77.f", src)
	mid := chunks[len(chunks)/2]
	at := strings.Index(src, mid.Text)
	for _, x := range []struct{ name, text string }{
		{"memo/warm-shifted-edit", src[:at] + editUnit(mid.Text, 0) + src[at+len(mid.Text):]},
		{"memo/warm-add-unit", src + nqzUnit},
	} {
		text := x.text
		out = append(out, benchPrimed(x.name, int64(len(text)), func() (func() error, error) {
			cache := ipcp.NewCache(ipcp.CacheOptions{})
			return func() error { return analyze(text, cache) }, analyze(src, cache)
		}))
	}
	return out, nil
}

// sessionExhibits measures the compiler-daemon session path.
//
// memo/warm-one-edit-delta is the same scenario as memo/warm-one-edit —
// one novel statement in spec77's last unit, re-analyzed — expressed as
// a delta edit against a resident session instead of a whole-text
// re-submission against the SHA-keyed cache: no re-splitting, no
// re-hashing, re-parse of exactly one unit, artifact invalidation
// limited to the edited unit's transitive callers, and value-context
// replay for the procedures propagation revisits with unchanged
// incoming tuples.
//
// session/edit-blast-radius-{1,n} ablate the invalidation itself on a
// synthetic linear call chain MAIN -> C1 -> … -> Cdepth: an edit to
// MAIN (no callers) invalidates one unit, an edit to the deepest
// callee invalidates the entire transitive-caller chain. The spread
// between the two is what blast-radius invalidation buys over
// rebuild-everything.
//
// session/edit-add-unit and session/edit-shifted-edit are the edits of
// memo/warm-add-unit and memo/warm-shifted-edit as deltas against the
// spec77 session: a subroutine appended and deleted again, and the
// middle unit made one line longer and restored, so every later unit
// moves and is parsed again. One iteration is both deltas, each derived
// from the resident program.
//
// session/edit-gen256-leaf is one fast edit of the daemon-edits kind: a
// local constant tweaked in a leaf procedure of the 256-procedure
// generated program (gen seed 1986). Spec77's edit re-analyzes a small
// program; here the edit is as small, and what an iteration costs
// beyond it is the work a fast edit still does over the whole program.
func sessionExhibits() ([]Exhibit, error) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		return nil, fmt.Errorf("no suite program spec77")
	}
	src := suite.Source(spec)
	cfg := ipcp.Config{Kind: ipcp.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	ctx := context.Background()

	s, err := ipcp.OpenSession(ctx, "spec77.f", src, cfg)
	if err != nil {
		return nil, fmt.Errorf("session open: %w", err)
	}
	chunks, ok := memo.Split("spec77.f", src)
	if !ok || len(chunks) != s.NumUnits() {
		return nil, fmt.Errorf("spec77 split: %d chunks vs %d session units", len(chunks), s.NumUnits())
	}
	last := len(chunks) - 1
	seq := 0
	deltaEdit := func() error {
		seq++
		_, err := fastEdit(ctx, s, ipcp.UnitEdit{Op: "replace", Index: last, Text: editUnit(chunks[last].Text, seq)})
		return err
	}
	if err := deltaEdit(); err != nil {
		return nil, fmt.Errorf("memo/warm-one-edit-delta: %w", err)
	}
	out := []Exhibit{benchOps("memo/warm-one-edit-delta", int64(len(src)), deltaEdit)}

	mid := len(chunks) / 2
	for _, x := range []struct {
		name   string
		deltas []ipcp.UnitEdit
	}{
		{"session/edit-add-unit", []ipcp.UnitEdit{{Op: "add", Index: len(chunks), Text: nqzUnit}, {Op: "delete", Index: len(chunks)}}},
		{"session/edit-shifted-edit", []ipcp.UnitEdit{
			{Op: "replace", Index: mid, Text: editUnit(chunks[mid].Text, 0)},
			{Op: "replace", Index: mid, Text: chunks[mid].Text},
		}},
	} {
		out = append(out, benchOps(x.name, int64(len(src)), func() error {
			for _, d := range x.deltas {
				if _, err := fastEdit(ctx, s, d); err != nil {
					return err
				}
			}
			return nil
		}))
	}

	const depth = 16
	var b strings.Builder
	mainText := func(k int) string {
		return fmt.Sprintf("PROGRAM MAIN\nINTEGER K\nK = %d\nCALL C1(K, 2)\nEND\n\n", k)
	}
	leafText := func(extra int) string {
		return fmt.Sprintf("SUBROUTINE C%d(A, B)\nINTEGER A, B\nPRINT *, A + B + %d\nEND\n", depth, extra)
	}
	b.WriteString(mainText(1000))
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&b, "SUBROUTINE C%d(A, B)\nINTEGER A, B\nCALL C%d(A + 1, B)\nEND\n\n", i, i+1)
	}
	b.WriteString(leafText(0))
	chain, err := ipcp.OpenSession(ctx, "chain.f", b.String(), cfg)
	if err != nil {
		return nil, fmt.Errorf("chain session open: %w", err)
	}
	blastEdit := func(index int, text func(int) string, wantBlast int) func() error {
		return func() error {
			seq++
			info, err := fastEdit(ctx, chain, ipcp.UnitEdit{Op: "replace", Index: index, Text: text(seq)})
			if err == nil && info.UnitsInvalidated != wantBlast {
				err = fmt.Errorf("blast radius %d, want %d", info.UnitsInvalidated, wantBlast)
			}
			return err
		}
	}
	for _, bx := range []struct {
		name string
		edit func() error
	}{
		{"session/edit-blast-radius-1", blastEdit(0, mainText, 1)},
		{"session/edit-blast-radius-n", blastEdit(depth, leafText, depth+1)},
	} {
		if err := bx.edit(); err != nil {
			return nil, fmt.Errorf("%s: %w", bx.name, err)
		}
		out = append(out, benchOps(bx.name, int64(b.Len()), bx.edit))
	}

	leafEdit, genLen, err := genLeafEdit(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("session/edit-gen256-leaf: %w", err)
	}
	return append(out, benchOps("session/edit-gen256-leaf", genLen, leafEdit)), nil
}

// fastEdit applies one delta to s and fails unless the session derived
// the edited program from its resident one.
func fastEdit(ctx context.Context, s *ipcp.Session, e ipcp.UnitEdit) (ipcp.EditInfo, error) {
	info, err := s.Edit(ctx, []ipcp.UnitEdit{e})
	if err == nil && !info.FastPath {
		err = fmt.Errorf("%s of unit %d fell off the fast path", e.Op, e.Index)
	}
	return info, err
}

// localInit matches a generated local's initialization, "  L3 = 14" or
// "  L3 = (-5)".
var localInit = regexp.MustCompile(`(?m)^(\s+L\d+ = )(\(-\d+\)|\d+)$`)

// genLeafEdit opens a session on the 256-procedure generated program
// and returns an edit that sets one local initialization of its first
// called leaf procedure to a new small value, failing if the edit
// leaves the fast path; size is the program's length in bytes.
func genLeafEdit(ctx context.Context, cfg ipcp.Config) (edit func() error, size int64, err error) {
	src := gen.Program(gen.Config{Seed: 1986, NumProcs: 256})
	chunks, ok := memo.Split("gen256.f", src)
	if !ok {
		return nil, 0, fmt.Errorf("program does not split into units")
	}
	var diags source.ErrorList
	prog := sem.Analyze(parser.ParseSource("gen256.f", src, &diags), &diags)
	if diags.HasErrors() {
		return nil, 0, diags.Err()
	}
	if len(chunks) != len(prog.Order) {
		return nil, 0, fmt.Errorf("%d units for %d procedures", len(chunks), len(prog.Order))
	}
	leaf := -1
	for _, n := range callgraph.Build(prog).Order {
		if len(n.Out) == 0 && len(n.In) > 0 && localInit.MatchString(chunks[n.Index].Text) {
			leaf = n.Index
			break
		}
	}
	if leaf < 0 {
		return nil, 0, fmt.Errorf("no called leaf with a local initialization")
	}
	s, err := ipcp.OpenSession(ctx, "gen256.f", src, cfg)
	if err != nil {
		return nil, 0, err
	}
	text := chunks[leaf].Text
	loc := localInit.FindStringSubmatchIndex(text)
	seq := 0
	edit = func() error {
		seq++
		tweaked := text[:loc[4]] + strconv.Itoa(seq%7+1) + text[loc[5]:]
		_, err := fastEdit(ctx, s, ipcp.UnitEdit{Op: "replace", Index: leaf, Text: tweaked})
		return err
	}
	if err := edit(); err != nil {
		return nil, 0, err
	}
	return edit, int64(len(src)), nil
}

// solverExhibits measures the §4 solver ablation: propagation re-run
// over prebuilt jump functions (Analysis.RunSolver), worklist vs
// binding graph, for each forward jump-function kind the comparison is
// meaningful for. The jump-function evaluation count of one solve is
// deterministic, so it is measured once and recorded as
// jf_evals_per_op rather than averaged out of the timed loop.
func solverExhibits() ([]Exhibit, error) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		return nil, fmt.Errorf("no suite program spec77")
	}
	var diags source.ErrorList
	f := parser.ParseSource("spec77.f", suite.Source(spec), &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		return nil, fmt.Errorf("spec77: %s", diags.Error())
	}

	solvers := []struct {
		slug string
		kind core.SolverKind
	}{
		{"worklist", core.SolverWorklist},
		{"binding", core.SolverBinding},
	}
	var out []Exhibit
	for _, kind := range []jump.Kind{jump.Literal, jump.PassThrough, jump.Polynomial} {
		c := core.Config{
			Jump:        jump.Config{Kind: kind, UseMOD: true, UseReturnJFs: true},
			Parallelism: 1,
		}
		a := core.AnalyzeProgram(prog, c)
		for _, s := range solvers {
			_, evals, err := a.RunSolver(s.kind)
			if err != nil {
				return nil, fmt.Errorf("solver/%s-%s: %w", s.slug, kind, err)
			}
			e := bench(fmt.Sprintf("solver/%s-%s", s.slug, kind), 0, func(n int) error {
				for i := 0; i < n; i++ {
					if _, _, err := a.RunSolver(s.kind); err != nil {
						return err
					}
				}
				return nil
			})
			e.JFEvalsPerOp = float64(evals)
			out = append(out, e)
		}
	}
	return out, nil
}

// measureOnce runs f exactly once with allocation accounting. The
// configuration-ablation exhibits use it: their payload is the
// deterministic effect sizes (jump-function evaluations, substitutable
// uses), and a single run per (program, configuration) cell keeps the
// full ablation sweep affordable. The timing is correspondingly noisy —
// a breadth record, not a perf gate.
func measureOnce(name string, f func() (*ipcp.Result, error)) (Exhibit, *ipcp.Result) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := f()
	dur := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
	runtime.ReadMemStats(&m1)
	return Exhibit{
		Name:        name,
		Iterations:  1,
		NsPerOp:     float64(dur.Nanoseconds()),
		AllocsPerOp: int64(m1.Mallocs - m0.Mallocs),
		BytesPerOp:  int64(m1.TotalAlloc - m0.TotalAlloc),
	}, res
}

// domainExhibits measures the non-constant abstract domains end to end
// on the Table 2 program — the same pipeline as table2/analyze-serial
// with only Config.Domain changed, so the per-domain transfer cost is
// directly comparable. facts_per_op records how much each domain
// proves.
func domainExhibits() ([]Exhibit, error) {
	spec, ok := suite.ByName("spec77")
	if !ok {
		return nil, fmt.Errorf("no suite program spec77")
	}
	src := suite.Source(spec)
	var out []Exhibit
	for _, dom := range []string{"interval", "parity", "taint", "cond-const"} {
		cfg := ipcp.Config{Kind: ipcp.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1, Domain: dom}
		res, err := ipcp.Analyze("spec77.f", src, cfg)
		if err != nil {
			return nil, fmt.Errorf("domain/%s: %w", dom, err)
		}
		facts := 0
		for _, fs := range res.Facts() {
			facts += len(fs)
		}
		e := bench("domain/"+dom, int64(len(src)), func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := ipcp.Analyze("spec77.f", src, cfg); err != nil {
					return err
				}
			}
			return nil
		})
		e.FactsPerOp = float64(facts)
		out = append(out, e)
	}
	return out, nil
}

// ablationExhibits sweeps two configuration axes over every suite
// program: interprocedural MOD information on/off, and the
// jump-function expression-size budget at 8 and 4 nodes (the suite's
// polynomial jump functions top out under 8 nodes, so 8 shows the
// budget costing nothing and 4 shows where truncation starts buying
// evaluations at the price of substitutions). Each
// cell is one deterministic analysis (see measureOnce) recording the
// paper's cost unit (jf_evals_per_op) and effectiveness metric
// (subst_per_op), so the baseline diff shows what each axis buys on
// each program.
func ablationExhibits() ([]Exhibit, error) {
	base := ipcp.Config{Kind: ipcp.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	cells := []struct {
		slug string
		cfg  func() ipcp.Config
	}{
		{"mod-on", func() ipcp.Config { return base }},
		{"mod-off", func() ipcp.Config { c := base; c.UseMOD = false; return c }},
		{"exprsize-8", func() ipcp.Config { c := base; c.Budget.MaxJFExprSize = 8; return c }},
		{"exprsize-4", func() ipcp.Config { c := base; c.Budget.MaxJFExprSize = 4; return c }},
	}
	var out []Exhibit
	for _, spec := range suite.Programs() {
		src := suite.Source(spec)
		for _, cell := range cells {
			name := fmt.Sprintf("ablation/%s/%s", cell.slug, spec.Name)
			cfg := cell.cfg()
			e, res := measureOnce(name, func() (*ipcp.Result, error) {
				return ipcp.Analyze(spec.Name+".f", src, cfg)
			})
			evals, _, _ := res.Stats()
			e.JFEvalsPerOp = float64(evals)
			e.SubstPerOp = float64(res.SubstitutionCount())
			out = append(out, e)
		}
	}
	return out, nil
}

// sweepOnce times one full uncached Table 2 sweep.
func sweepOnce(parallelism int) (time.Duration, error) {
	start := time.Now()
	if _, err := report.ComputeTable2With(parallelism); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// sweepBest returns the faster of two sweep runs, damping scheduler and
// GC noise without inflating the harness runtime (quick mode runs just
// one).
func sweepBest(parallelism int) (time.Duration, error) {
	best, err := sweepOnce(parallelism)
	if err != nil {
		return 0, err
	}
	if quick {
		return best, nil
	}
	again, err := sweepOnce(parallelism)
	if err != nil {
		return 0, err
	}
	if again < best {
		best = again
	}
	return best, nil
}

func measure(stderr io.Writer) (*Baseline, error) {
	base := &Baseline{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
	}

	// Figure 1: lattice meets — the solver's innermost operation.
	base.Exhibits = append(base.Exhibits, bench("figure1/meet", 0, func(n int) error {
		vals := []lattice.Value{
			lattice.TopValue(), lattice.BottomValue(),
			lattice.ConstValue(1), lattice.ConstValue(2), lattice.ConstValue(-7),
		}
		for i := 0; i < n; i++ {
			v := lattice.TopValue()
			for _, w := range vals {
				v = lattice.Meet(v, w)
			}
			if !v.IsBottom() {
				return fmt.Errorf("meet chain should bottom out")
			}
		}
		return nil
	}))

	// Table 1: suite synthesis and characterization throughput.
	specs := suite.Programs()
	var totalBytes int64
	for _, spec := range specs {
		totalBytes += int64(len(suite.Source(spec)))
	}
	base.Exhibits = append(base.Exhibits, bench("table1/characterize", totalBytes, func(n int) error {
		for i := 0; i < n; i++ {
			for _, spec := range specs {
				src := suite.Source(spec)
				if suite.Characterize(spec.Name, src).Procs == 0 {
					return fmt.Errorf("empty characterization")
				}
			}
		}
		return nil
	}))

	// Tables 2/3: the full pipeline on a representative large program,
	// serially and with the per-procedure worker pool.
	serialCfg := ipcp.Config{Kind: ipcp.Polynomial, UseMOD: true, UseReturnJFs: true, Parallelism: 1}
	measurements := []struct {
		name string
		cfg  ipcp.Config
	}{
		{"table2/analyze-serial", serialCfg},
	}
	// Parallelism 0 resolves to one worker per CPU; with a single CPU
	// that is the serial path again, and a duplicate exhibit would just
	// be noise with a misleading name.
	if base.GoMaxProcs > 1 {
		parallelCfg := serialCfg
		parallelCfg.Parallelism = 0
		measurements = append(measurements, struct {
			name string
			cfg  ipcp.Config
		}{"table2/analyze-parallel", parallelCfg})
	} else {
		fmt.Fprintf(stderr, "ipcp-bench: GOMAXPROCS=1: skipping table2/analyze-parallel (identical to serial path)\n")
	}
	for _, m := range measurements {
		e, err := analyzeExhibit(m.name, "spec77", m.cfg)
		if err != nil {
			return nil, err
		}
		base.Exhibits = append(base.Exhibits, e)
	}
	completeCfg := serialCfg
	completeCfg.Complete = true
	e, err := analyzeExhibit("table3/complete", "matrix300", completeCfg)
	if err != nil {
		return nil, err
	}
	base.Exhibits = append(base.Exhibits, e)

	// Incremental analysis: cold vs warm re-analysis through the cache.
	memos, err := memoExhibits()
	if err != nil {
		return nil, err
	}
	base.Exhibits = append(base.Exhibits, memos...)

	// Compiler-daemon sessions: the delta-edit counterpart of the memo
	// exhibits, plus the blast-radius ablation.
	sessions, err := sessionExhibits()
	if err != nil {
		return nil, err
	}
	base.Exhibits = append(base.Exhibits, sessions...)

	// §4 solver ablation: worklist vs binding graph per jump-function
	// kind, over prebuilt jump functions.
	solvers, err := solverExhibits()
	if err != nil {
		return nil, err
	}
	base.Exhibits = append(base.Exhibits, solvers...)

	// Abstract domains: the monotone framework's non-constant
	// instances through the same pipeline as table2/analyze-serial.
	domains, err := domainExhibits()
	if err != nil {
		return nil, err
	}
	base.Exhibits = append(base.Exhibits, domains...)

	// Configuration ablation: MOD on/off and the expression-size
	// budget, one deterministic cell per suite program.
	ablations, err := ablationExhibits()
	if err != nil {
		return nil, err
	}
	base.Exhibits = append(base.Exhibits, ablations...)

	// The sweep comparison: all (program, configuration) cells of
	// Table 2, serial vs one worker per CPU.
	base.Sweep.Workers = base.GoMaxProcs
	serial, err := sweepBest(1)
	if err != nil {
		return nil, err
	}
	base.Sweep.SerialNs = serial.Nanoseconds()
	if base.GoMaxProcs <= 1 {
		base.Sweep.ParallelNs = serial.Nanoseconds()
		base.Sweep.Speedup = 1.0
		base.Sweep.Note = "single CPU: the parallel sweep resolves to the serial path; not re-measured"
		fmt.Fprintf(stderr, "ipcp-bench: GOMAXPROCS=1: %s\n", base.Sweep.Note)
		return base, nil
	}
	parallel, err := sweepBest(0)
	if err != nil {
		return nil, err
	}
	base.Sweep.ParallelNs = parallel.Nanoseconds()
	if parallel > 0 {
		base.Sweep.Speedup = float64(serial) / float64(parallel)
	}
	return base, nil
}

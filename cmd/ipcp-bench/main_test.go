package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The full measurement run takes tens of seconds (each exhibit runs
// under the benchmark harness for about a second), so the unit tests
// cover the argument handling and the baseline document shape; `make
// bench` exercises the real run.

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-no-such-flag"}, &out, &errb); got != 1 {
		t.Fatalf("status = %d, want 1", got)
	}
	if !strings.Contains(errb.String(), "no-such-flag") {
		t.Fatalf("stderr %q does not mention the bad flag", errb.String())
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"extra"}, &out, &errb); got != 1 {
		t.Fatalf("status = %d, want 1", got)
	}
	if !strings.Contains(errb.String(), "unexpected argument") {
		t.Fatalf("stderr %q does not flag the argument", errb.String())
	}
}

func TestBaselineRoundTrips(t *testing.T) {
	base := Baseline{
		GoVersion:  "go1.24.0",
		GoMaxProcs: 4,
		CPUs:       4,
		Exhibits: []Exhibit{
			{Name: "figure1/meet", Iterations: 100, NsPerOp: 12.5, AllocsPerOp: 0},
			{Name: "table2/analyze-serial", Iterations: 10, NsPerOp: 1e6, AllocsPerOp: 900, BytesPerOp: 4096, MBPerSec: 3.2},
		},
		Sweep: Sweep{Workers: 4, SerialNs: 4e9, ParallelNs: 1e9, Speedup: 4},
	}
	blob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var got Baseline
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Sweep.Speedup != 4 || len(got.Exhibits) != 2 || got.Exhibits[1].MBPerSec != 3.2 {
		t.Fatalf("round trip mangled the document: %+v", got)
	}
	if got.CPUs != 4 {
		t.Fatalf("CPUs did not round trip: %+v", got)
	}
}

// TestSingleCPUSweepNote pins the honesty contract for single-CPU
// baselines: a sweep that was not re-measured must say so and claim
// exactly 1.0, never a noise-derived speedup.
func TestSingleCPUSweepNote(t *testing.T) {
	s := Sweep{Workers: 1, SerialNs: 1e9, ParallelNs: 1e9, Speedup: 1,
		Note: "single CPU: the parallel sweep resolves to the serial path; not re-measured"}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Sweep
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Note == "" || got.Speedup != 1 || got.SerialNs != got.ParallelNs {
		t.Fatalf("single-CPU sweep document mangled: %+v", got)
	}
}

// TestGateAllocs checks the baseline gate's 10% rule on both
// allocation counts and allocated bytes of table2/analyze-serial.
func TestGateAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ipcp.json")
	committed := Baseline{Exhibits: []Exhibit{{Name: "table2/analyze-serial", AllocsPerOp: 1000, BytesPerOp: 100000}}}
	blob, err := json.Marshal(committed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		allocs, bytes int64
		fail          string
	}{
		{1100, 110000, ""},
		{1101, 100000, "allocs/op 1101"},
		{1000, 110001, "bytes/op 110001"},
	} {
		cur := Baseline{Exhibits: []Exhibit{{Name: "table2/analyze-serial", AllocsPerOp: tc.allocs, BytesPerOp: tc.bytes}}}
		var out strings.Builder
		err := gateAllocs(&out, path, &cur)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%d allocs, %d bytes: %v", tc.allocs, tc.bytes, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%d allocs, %d bytes: error %v, want one naming %q", tc.allocs, tc.bytes, err, tc.fail)
		}
	}
}

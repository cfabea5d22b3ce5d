package pipeline

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceAccounting(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 3; i++ {
		stop := tr.Start("solve")
		time.Sleep(time.Millisecond)
		stop()
	}
	tr.AddUnits("solve", 5)
	tr.AddUnits("solve", 2)
	tr.AddUnits("solve", 0) // no-op, must not disturb counts
	tr.MemoHit("jump")
	tr.Degradation("jump")
	tr.Degradation("jump")

	stats := tr.Snapshot()
	if len(stats) != 2 || stats[0].Phase != "solve" || stats[1].Phase != "jump" {
		t.Fatalf("snapshot order = %+v, want [solve jump]", stats)
	}
	s := stats[0]
	if s.Runs != 3 || s.Units != 7 || s.Wall <= 0 {
		t.Fatalf("solve stat = %+v", s)
	}
	j := stats[1]
	if j.MemoHits != 1 || j.Degradations != 2 || j.Runs != 0 {
		t.Fatalf("jump stat = %+v", j)
	}

	// Snapshot is a copy.
	stats[0].Runs = 99
	if tr.Snapshot()[0].Runs != 3 {
		t.Fatal("snapshot aliases the live stat")
	}
}

// TestRunPhaseDynamicLoop runs phases a number of times only known at
// run time, as the complete-propagation rounds run jump and solve once
// per round: each phase keeps one stat, in first-observation order,
// whose Runs counts the rounds.
func TestRunPhaseDynamicLoop(t *testing.T) {
	tr := NewTrace()
	rounds := 0
	for changed := true; changed; {
		rounds++
		tr.Start("jump")()
		tr.Start("solve")()
		changed = rounds < 4
	}
	stats := tr.Snapshot()
	if len(stats) != 2 || stats[0].Phase != "jump" || stats[1].Phase != "solve" {
		t.Fatalf("stats = %+v, want [jump solve]", stats)
	}
	for _, s := range stats {
		if s.Runs != 4 {
			t.Fatalf("%s runs = %d, want 4", s.Phase, s.Runs)
		}
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Start("x")()
	tr.AddUnits("x", 1)
	tr.MemoHit("x")
	tr.Degradation("x")
	if tr.Snapshot() != nil {
		t.Fatal("nil trace snapshot not nil")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			phase := fmt.Sprintf("p%d", g%2)
			for i := 0; i < 100; i++ {
				stop := tr.Start(phase)
				tr.AddUnits(phase, 1)
				stop()
			}
		}(g)
	}
	wg.Wait()
	var runs, units int64
	for _, s := range tr.Snapshot() {
		runs += s.Runs
		units += s.Units
	}
	if runs != 800 || units != 800 {
		t.Fatalf("runs=%d units=%d, want 800/800", runs, units)
	}
}

package ssa

import (
	"sync"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

func tableFor(t *testing.T, src string) (*Table, *callgraph.Graph) {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("t.f", src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front-end errors:\n%s", diags.Error())
	}
	cg := callgraph.Build(prog)
	return NewTable(cg, modref.Compute(cg).Kills), cg
}

const tableSrc = `PROGRAM P
INTEGER I
I = 3
CALL S(I)
END
SUBROUTINE S(N)
INTEGER N, M
M = N + 1
PRINT *, M
END
`

// TestTableBuildsEachFormOnce: a slot builds its form on first use and
// hands the same form to every later caller.
func TestTableBuildsEachFormOnce(t *testing.T) {
	tab, cg := tableFor(t, tableSrc)
	if tab.Built() != 0 {
		t.Fatalf("fresh table built %d forms", tab.Built())
	}
	first := tab.Func(1)
	if first.Proc != cg.Order[1].Proc {
		t.Fatalf("slot 1 holds %s, want %s", first.Proc.Name, cg.Order[1].Proc.Name)
	}
	if again := tab.Func(1); again != first {
		t.Error("second use of a slot returned a different form")
	}
	if tab.Built() != 1 {
		t.Errorf("Built = %d after using one slot, want 1", tab.Built())
	}
	tab.Func(0)
	if tab.Built() != 2 {
		t.Errorf("Built = %d after using both slots, want 2", tab.Built())
	}
}

// TestTableConcurrentFirstUse races eight goroutines to one empty slot:
// the form is built once and every goroutine sees that one form. Run
// under -race this is the data-race gate for the lazy slots.
func TestTableConcurrentFirstUse(t *testing.T) {
	tab, _ := tableFor(t, tableSrc)
	const goroutines = 8
	got := make([]*Func, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = tab.Func(1)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("goroutine %d saw form %p, goroutine 0 saw %p", g, got[g], got[0])
		}
	}
	if tab.Built() != 1 {
		t.Errorf("Built = %d, want 1", tab.Built())
	}
}

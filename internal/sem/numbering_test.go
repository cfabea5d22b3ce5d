package sem_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cfg"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
)

// checkSlots requires proc's symbols to number [0, NumSlots) densely:
// every number in range and none shared.
func checkSlots(t *testing.T, name string, proc *sem.Procedure) {
	t.Helper()
	bySlot := make([]*sem.Symbol, proc.NumSlots())
	for _, s := range proc.Symbols {
		n := s.Slot()
		if n < 0 || n >= len(bySlot) {
			t.Fatalf("%s/%s: %s has slot %d outside [0, %d)", name, proc.Name, s.Name, n, len(bySlot))
		}
		if prev := bySlot[n]; prev != nil {
			t.Fatalf("%s/%s: %s and %s share slot %d", name, proc.Name, prev.Name, s.Name, n)
		}
		bySlot[n] = s
	}
	if len(proc.Symbols) != proc.NumSlots() {
		t.Fatalf("%s/%s: %d symbols, NumSlots %d", name, proc.Name, len(proc.Symbols), proc.NumSlots())
	}
}

// TestSymbolNumbering checks the symbol and global numbering invariants
// over the suite, the core test programs and generated programs: each
// procedure's symbols have distinct slots in [0, NumSlots) before and
// after cfg.Build adds temporaries, and each global's number is its
// position in Globals().
func TestSymbolNumbering(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, sp := range suite.Programs() {
		progs = append(progs, program{sp.Name, suite.Source(sp)})
	}
	files, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs under ../core/testdata (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.Base(path), string(src)})
	}
	for _, n := range []int{16, 64, 256} {
		progs = append(progs, program{fmt.Sprintf("gen%d", n), gen.Program(gen.Config{Seed: int64(n), NumProcs: n})})
	}

	temps := 0
	for _, p := range progs {
		var diags source.ErrorList
		f := parser.ParseSource(p.name+".f", p.src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: front-end errors:\n%s", p.name, diags.Error())
		}
		for i, g := range prog.Globals() {
			if g.Num() != i || prog.GlobalIndex(g) != i {
				t.Fatalf("%s: global %s at position %d has number %d, index %d", p.name, g.Key(), i, g.Num(), prog.GlobalIndex(g))
			}
		}
		for _, proc := range prog.Order {
			checkSlots(t, p.name, proc)
			before := proc.NumSlots()
			cfg.Build(prog, proc)
			checkSlots(t, p.name, proc)
			temps += proc.NumSlots() - before
		}
	}
	if temps == 0 {
		t.Fatal("no temporaries checked")
	}
}

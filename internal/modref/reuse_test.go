package modref_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/gen"
	"repro/internal/memo"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/suite"
)

type program struct{ name, src string }

// reuseCorpus is the suite, the core test programs and generated
// programs of 16 and 64 procedures.
func reuseCorpus(t *testing.T) []program {
	t.Helper()
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
	for _, n := range []int{16, 64} {
		progs = append(progs, program{fmt.Sprintf("gen%d", n), gen.Program(gen.Config{Seed: int64(n), NumProcs: n})})
	}
	return progs
}

// dump renders every MOD, REF, GMOD and GREF bit of every procedure,
// by name, so summaries compare across edits (which replace procedure
// identities).
func dump(prog *sem.Program, info *modref.Info) string {
	var b strings.Builder
	for _, p := range prog.Order {
		fmt.Fprintf(&b, "%s:", p.Name)
		for i, f := range p.Formals {
			fmt.Fprintf(&b, " %s=%t/%t", f.Name, info.Mod(p, i), info.Ref(p, i))
		}
		for _, g := range prog.Globals() {
			fmt.Fprintf(&b, " %s=%t/%t", g.Key(), info.GMod(p, g), info.GRef(p, g))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// effectKinds are the effects an edit adds and then removes.
var effectKinds = []string{"formal-write", "common-write", "common-read", "call"}

// effectEdits returns the statement an edit of p inserts for each
// effect kind that applies to p, keyed by kind, preferring an effect p
// does not have yet.
func effectEdits(prog *sem.Program, info *modref.Info, p *sem.Procedure) map[string]string {
	scalarInt := func(s *sem.Symbol) bool { return !s.IsArray && s.Type == ast.TypeInteger }
	edits := make(map[string]string)
	for i, f := range p.Formals {
		if scalarInt(f) && (edits["formal-write"] == "" || !info.Mod(p, i)) {
			edits["formal-write"] = f.Name + " = 7"
		}
	}
	var actual string
	for _, f := range p.Formals {
		if scalarInt(f) {
			actual = f.Name
			break
		}
	}
	for _, s := range p.Commons {
		if !scalarInt(s) {
			continue
		}
		if edits["common-write"] == "" || !info.GMod(p, s.Global) {
			edits["common-write"] = s.Name + " = 7"
		}
		if edits["common-read"] == "" || !info.GRef(p, s.Global) {
			edits["common-read"] = "PRINT *, " + s.Name
		}
		if actual == "" {
			actual = s.Name
		}
	}
	if actual == "" {
		actual = "1"
	}
	// Call a subroutine with integer scalar formals, preferring one that
	// modifies a formal, so its MOD reaches p through the binding.
	for _, q := range prog.Order {
		if q == p || q.Unit.Kind != ast.SubroutineUnit || len(q.Formals) == 0 {
			continue
		}
		ok, mods := true, false
		for i, f := range q.Formals {
			ok = ok && scalarInt(f)
			mods = mods || info.Mod(q, i)
		}
		if !ok || (edits["call"] != "" && !mods) {
			continue
		}
		args := make([]string, len(q.Formals))
		for i := range args {
			args[i] = actual
		}
		edits["call"] = fmt.Sprintf("CALL %s(%s)", q.Name, strings.Join(args, ", "))
		if mods {
			break
		}
	}
	return edits
}

// insertStmt puts stmt before the first executable statement of the
// unit text, where it runs on every entry.
func insertStmt(t *testing.T, text, stmt string) string {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("unit.f", text, &diags)
	if diags.HasErrors() || len(f.Units) != 1 {
		t.Fatalf("unit does not parse alone:\n%s", text)
	}
	lines := strings.SplitAfter(text, "\n")
	at := len(lines) - 1
	for at > 0 && strings.TrimSpace(lines[at]) != "END" {
		at--
	}
	if body := f.Units[0].Body; len(body) > 0 {
		at = body[0].Pos().Line - 1
	}
	return strings.Join(lines[:at], "") + stmt + "\n" + strings.Join(lines[at:], "")
}

// TestComputeReuseMatchesCompute applies scripted one-unit replacements
// through memo.Replace, the replace step sessions and the analysis
// cache share — sem.Program.Derive, then callgraph.BuildReuse over
// every other procedure's CFG — and requires modref.ComputeReuse from
// the previous summaries to equal a fresh modref.Compute bit for bit
// after every edit. Each script adds, then
// removes, a write to a formal, a write to a COMMON variable, a read of
// a COMMON variable and a call, so effects both enter and leave the
// callers' closed sets.
func TestComputeReuseMatchesCompute(t *testing.T) {
	applied := make(map[string]int)
	changed := make(map[string]int)
	for _, pr := range reuseCorpus(t) {
		name, src := pr.name, pr.src
		var diags source.ErrorList
		f := parser.ParseSource(name, src, &diags)
		prog := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("%s: front-end errors:\n%s", name, diags.Error())
		}
		chunks, ok := memo.Split(name, src)
		if !ok || len(chunks) != len(prog.Order) {
			t.Fatalf("%s: %d chunks for %d procedures", name, len(chunks), len(prog.Order))
		}
		cg := callgraph.Build(prog)
		info := modref.Compute(cg)
		check := func(when string) {
			t.Helper()
			if got, want := dump(prog, info), dump(prog, modref.Compute(cg)); got != want {
				t.Fatalf("%s: reused summaries\n%s\ndiffer from recomputed ones\n%s", when, got, want)
			}
		}

		// replace swaps unit idx for text and re-derives the graph layer;
		// it reports false when the replace step rejects the replacement.
		fe := memo.Front{Prog: prog, Graph: cg, Mod: info}
		replace := func(idx int, text string) bool {
			units := make([]memo.Unit, len(prog.Order))
			for i := range units {
				units[i].Keep = i
			}
			units[idx] = memo.Unit{Keep: -1, Chunk: memo.Chunk{File: name, StartLine: chunks[idx].StartLine, Text: text}}
			next, _, ok := memo.Replace(fe, units)
			if !ok {
				return false
			}
			fe = next
			prog, cg, info = next.Prog, next.Graph, next.Mod
			return true
		}

		// Edit up to eight units spread over the program.
		step := max(1, len(prog.Order)/8)
		for idx := 0; idx < len(prog.Order); idx += step {
			p := prog.Order[idx]
			orig := chunks[idx].Text
			edits := effectEdits(prog, info, p)
			for _, kind := range effectKinds {
				stmt, ok := edits[kind]
				if !ok {
					continue
				}
				before := dump(prog, info)
				if !replace(idx, insertStmt(t, orig, stmt)) {
					continue
				}
				when := fmt.Sprintf("%s: %s in %s (%s)", name, kind, p.Name, stmt)
				check(when)
				applied[kind]++
				if dump(prog, info) != before {
					changed[kind]++
				}
				if !replace(idx, orig) {
					t.Fatalf("%s: restoring %s rejected", name, p.Name)
				}
				check(when + ", then removed")
				if got := dump(prog, info); got != before {
					t.Fatalf("%s: removal left\n%s\nwant\n%s", when, got, before)
				}
			}
		}
	}
	for _, kind := range effectKinds {
		if applied[kind] == 0 || changed[kind] == 0 {
			t.Errorf("%s edits: %d applied, %d changed a summary", kind, applied[kind], changed[kind])
		}
	}
	t.Logf("edits applied %v, changing a summary %v", applied, changed)
}

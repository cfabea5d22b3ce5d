package modref_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/cfg"
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

// tweakConstant returns the unit text with its first integer literal
// in an executable statement incremented, or, in a unit without one,
// with a PRINT of a constant inserted: an edit that keeps every call
// site and every effect.
func tweakConstant(t *testing.T, text string) string {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("unit.f", text, &diags)
	if diags.HasErrors() || len(f.Units) != 1 {
		t.Fatalf("unit does not parse alone:\n%s", text)
	}
	var lits []*ast.IntLit
	ast.WalkStmts(f.Units[0].Body, func(st ast.Stmt) bool {
		for _, e := range ast.ExprsOf(st) {
			ast.WalkExpr(e, func(x ast.Expr) bool {
				if lit, ok := x.(*ast.IntLit); ok {
					lits = append(lits, lit)
				}
				return true
			})
		}
		return true
	})
	lines := strings.SplitAfter(text, "\n")
	for _, lit := range lits {
		// Skip a literal whose digits are not in the text as written.
		at := len(strings.Join(lines[:lit.Position.Line-1], "")) + lit.Position.Col - 1
		digits := strconv.FormatInt(lit.Value, 10)
		if end := at + len(digits); strings.HasPrefix(text[at:], digits) && (end == len(text) || text[end] < '0' || text[end] > '9') {
			return text[:at] + strconv.FormatInt(lit.Value+1, 10) + text[end:]
		}
	}
	return insertStmt(t, text, "PRINT *, 1")
}

// swapCalls returns the unit text with the lines of its first two
// unlabeled top-level CALL statements of different procedures swapped,
// an edit that keeps the call sites' count but not their order, or
// false if the unit has no such pair.
func swapCalls(t *testing.T, text string) (string, bool) {
	t.Helper()
	var diags source.ErrorList
	f := parser.ParseSource("unit.f", text, &diags)
	if diags.HasErrors() || len(f.Units) != 1 {
		t.Fatalf("unit does not parse alone:\n%s", text)
	}
	var first *ast.CallStmt
	for _, st := range f.Units[0].Body {
		c, ok := st.(*ast.CallStmt)
		switch {
		case !ok || c.Label() != "":
		case first == nil:
			first = c
		case c.Name != first.Name && c.Pos().Line != first.Pos().Line:
			lines := strings.SplitAfter(text, "\n")
			a, b := first.Pos().Line-1, c.Pos().Line-1
			lines[a], lines[b] = lines[b], lines[a]
			return strings.Join(lines, ""), true
		}
	}
	return "", false
}

// graphDiff compares got, a call graph the replace step derived, with
// want, callgraph.Build's graph of the same program, node for node, and
// describes the first difference, or returns "". Build makes CFGs of
// its own, so call sites compare by caller, site number and callee; a
// site in got's In lists must moreover be the very site its caller's
// node in got lists in Out.
func graphDiff(got, want *callgraph.Graph) string {
	site := func(s *cfg.CallSite) string { return fmt.Sprintf("%s@%d->%s", s.Caller.Name, s.ID, s.Callee) }
	sites := func(ss []*cfg.CallSite) string {
		var b strings.Builder
		for _, s := range ss {
			b.WriteString(site(s) + " ")
		}
		return b.String()
	}
	index := func(n *callgraph.Node) int {
		if n == nil {
			return -1
		}
		return n.Index
	}
	indices := func(ns []*callgraph.Node) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			out[i] = index(n)
		}
		return out
	}
	if len(got.Order) != len(want.Order) || got.NumSCCs != want.NumSCCs || len(got.Nodes) != len(got.Order) {
		return fmt.Sprintf("%d nodes (%d by name) in %d components, want %d in %d",
			len(got.Order), len(got.Nodes), got.NumSCCs, len(want.Order), want.NumSCCs)
	}
	for i, n := range got.Order {
		w := want.Order[i]
		switch {
		case n.Proc != w.Proc || n.Index != i || got.Nodes[n.Proc.Name] != n:
			return fmt.Sprintf("node %d is %s (index %d), want %s", i, n.Proc.Name, n.Index, w.Proc.Name)
		case n.SCC != w.SCC || n.Recursive != w.Recursive:
			return fmt.Sprintf("%s: SCC %d recursive %t, want %d %t", n.Proc.Name, n.SCC, n.Recursive, w.SCC, w.Recursive)
		case sites(n.Out) != sites(w.Out):
			return fmt.Sprintf("%s: Out %s, want %s", n.Proc.Name, sites(n.Out), sites(w.Out))
		case !slices.Equal(indices(n.Callees), indices(w.Callees)):
			return fmt.Sprintf("%s: callees %v, want %v", n.Proc.Name, indices(n.Callees), indices(w.Callees))
		case sites(n.In) != sites(w.In):
			return fmt.Sprintf("%s: In %s, want %s", n.Proc.Name, sites(n.In), sites(w.In))
		}
		for _, c := range n.Callees {
			if c != nil && got.Order[c.Index] != c {
				return fmt.Sprintf("%s calls a node of another graph", n.Proc.Name)
			}
		}
		for _, s := range n.In {
			if c := got.Nodes[s.Caller.Name]; c == nil || c.Proc != s.Caller || !slices.Contains(c.Out, s) {
				return fmt.Sprintf("%s: In site %s is not its caller's", n.Proc.Name, site(s))
			}
		}
	}
	for _, o := range []struct {
		name      string
		got, want []*callgraph.Node
	}{{"BottomUp", got.BottomUp(), want.BottomUp()}, {"TopDown", got.TopDown(), want.TopDown()}} {
		if !slices.Equal(indices(o.got), indices(o.want)) {
			return fmt.Sprintf("%s %v, want %v", o.name, indices(o.got), indices(o.want))
		}
		for _, n := range o.got {
			if got.Order[n.Index] != n {
				return fmt.Sprintf("%s holds a node of another graph", o.name)
			}
		}
	}
	return ""
}

// TestDerivedGraphMatchesBuild tweaks a constant of every unit of the
// suite programs and of a 256-procedure generated program in turn, each
// edit derived through memo.Replace from the last one's front, and
// requires every derived call graph to equal callgraph.Build's graph of
// the same program. No tweak moves a call edge, so each graph is derived
// from its donor's (callgraph.BuildReuse shares the In lists no edit
// touched, which the test checks happened). A unit with two CALL
// statements of different procedures then has them swapped, which keeps
// the number of call sites but not their order, and must not be
// derived.
func TestDerivedGraphMatchesBuild(t *testing.T) {
	progs := []program{{"gen1986", gen.Program(gen.Config{Seed: 1986, NumProcs: 256})}}
	for _, sp := range suite.Programs() {
		progs = append(progs, program{sp.Name, suite.Source(sp)})
	}
	for _, pr := range progs {
		var diags source.ErrorList
		prog := sem.Analyze(parser.ParseSource(pr.name, pr.src, &diags), &diags)
		chunks, ok := memo.Split(pr.name, pr.src)
		if diags.HasErrors() || !ok || len(chunks) != len(prog.Order) {
			t.Fatalf("%s: %d chunks for %d procedures, diagnostics %v", pr.name, len(chunks), len(prog.Order), diags.Err())
		}
		g := callgraph.Build(prog)
		fe := memo.Front{Prog: prog, Graph: g, Mod: modref.Compute(g)}
		shared, swapped := 0, 0
		derive := func(idx int, text, what string) {
			t.Helper()
			units := make([]memo.Unit, len(chunks))
			for i := range units {
				units[i].Keep = i
			}
			units[idx] = memo.Unit{Keep: -1, Chunk: memo.Chunk{File: pr.name, StartLine: chunks[idx].StartLine, Text: text}}
			d, ok := memo.Replace(fe, units)
			if !ok {
				t.Fatalf("%s: %s %s rejected", pr.name, what, prog.Order[idx].Name)
			}
			if diff := graphDiff(d.To.Graph, callgraph.Build(d.To.Prog)); diff != "" {
				t.Fatalf("%s: after %s %s: %s", pr.name, what, prog.Order[idx].Name, diff)
			}
			for i, n := range d.To.Graph.Order {
				if in := fe.Graph.Order[i].In; len(n.In) > 0 && len(in) > 0 && &n.In[0] == &in[0] {
					shared++
				}
			}
			fe = d.To
		}
		for idx, ch := range chunks {
			derive(idx, tweakConstant(t, ch.Text), "tweaking")
			if text, ok := swapCalls(t, ch.Text); ok {
				derive(idx, text, "swapping two calls of")
				swapped++
			}
		}
		if shared == 0 && slices.ContainsFunc(g.Order, func(n *callgraph.Node) bool { return len(n.In) > 0 }) {
			t.Errorf("%s: no derived graph shares an In list with its donor", pr.name)
		}
		t.Logf("%s: %d units, %d with two calls swapped, %d In lists shared", pr.name, len(chunks), swapped, shared)
	}
}

// TestComputeReuseMatchesCompute applies scripted one-unit replacements
// through memo.Replace, the replace step sessions and the analysis
// cache share — sem.Program.Derive, then callgraph.BuildReuse over
// every other procedure's CFG — and requires modref.ComputeReuse from
// the previous summaries to equal a fresh modref.Compute bit for bit,
// and the derived call graph to equal callgraph.Build's, after every
// edit. Each script adds, then removes, a write to a formal, a write to
// a COMMON variable, a read of a COMMON variable and a call, so effects
// both enter and leave the callers' closed sets; then it changes a
// constant, an edit that keeps every effect, so the summaries outside
// the blast radius are shared, and restores it.
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
			if diff := graphDiff(cg, callgraph.Build(prog)); diff != "" {
				t.Fatalf("%s: derived call graph: %s", when, diff)
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
			d, ok := memo.Replace(fe, units)
			if !ok {
				return false
			}
			next := d.To
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
			before := dump(prog, info)
			if !replace(idx, tweakConstant(t, orig)) {
				t.Fatalf("%s: changing a constant of %s rejected", name, p.Name)
			}
			when := fmt.Sprintf("%s: a constant of %s changed", name, p.Name)
			check(when)
			if got := dump(prog, info); got != before {
				t.Fatalf("%s: summaries changed\n%s\nwant\n%s", when, got, before)
			}
			if !replace(idx, orig) {
				t.Fatalf("%s: restoring %s rejected", name, p.Name)
			}
			check(when + ", then restored")
			applied["constant"]++
		}
	}
	for _, kind := range effectKinds {
		if applied[kind] == 0 || changed[kind] == 0 {
			t.Errorf("%s edits: %d applied, %d changed a summary", kind, applied[kind], changed[kind])
		}
	}
	t.Logf("edits applied %v, changing a summary %v", applied, changed)
}

//go:build go1.24

package session

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/ast"
)

// TestFastReplaceReleasesReplacedAST: once a fast-path replace is itself
// replaced, nothing in the session may keep its AST alive. The first
// replacement is parsed alone, so the parser's arena chunks holding its
// nodes hold no other unit's; a weak pointer to one of its expressions
// must clear at the next collection while the session stays live.
func TestFastReplaceReleasesReplacedAST(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, "prog.f", twoChains, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	replaceLeaf := func(from, to string) {
		t.Helper()
		text := strings.Replace(s.units[2].Text, from, to, 1)
		info, err := s.Apply(ctx, []Edit{{Op: OpReplace, Index: 2, Text: text}})
		if err != nil {
			t.Fatal(err)
		}
		if !info.FastPath {
			t.Fatalf("LEAF edit %q took the slow path: %+v", to, info)
		}
	}

	replaceLeaf("N + M", "N * M")
	wp := func() weak.Pointer[ast.Binary] {
		pr := s.fe.Prog.Order[2].Unit.Body[0].(*ast.PrintStmt)
		return weak.Make(pr.Args[0].(*ast.Binary))
	}()
	if wp.Value() == nil {
		t.Fatal("weak pointer cleared while the replacement is live")
	}

	replaceLeaf("N * M", "N - M")
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the session retains the AST of a superseded replacement")
	}
	runtime.KeepAlive(s)
}

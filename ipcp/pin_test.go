package ipcp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/suite"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/outputs.golden")

const pinsPath = "testdata/outputs.golden"

// pinConfigs is the configuration grid the output pins cover: every
// jump-function kind, alone and under expression-size budgets of 3 and
// 6 nodes (budgets exercise the truncation count in the warnings), and
// the polynomial kind under every other analysis mode, solver and
// registered domain.
func pinConfigs() map[string]Config {
	out := make(map[string]Config)
	for _, k := range []Kind{Literal, Intraprocedural, PassThrough, Polynomial} {
		base := Config{Kind: k, UseMOD: true, UseReturnJFs: true}
		out[k.String()] = base
		for _, n := range []int{3, 6} {
			c := base
			c.Budget.MaxJFExprSize = n
			out[fmt.Sprintf("%v/maxexpr%d", k, n)] = c
		}
	}
	modes := map[string]func(*Config){
		"complete":          func(c *Config) { c.Complete = true },
		"gated":             func(c *Config) { c.Gated = true },
		"no-mod":            func(c *Config) { c.UseMOD = false },
		"no-ret":            func(c *Config) { c.UseReturnJFs = false },
		"full-sub":          func(c *Config) { c.FullSubstitution = true },
		"binding":           func(c *Config) { c.Solver = BindingGraph },
		"no-ret/maxexpr3":   func(c *Config) { c.UseReturnJFs = false; c.Budget.MaxJFExprSize = 3 },
		"complete/maxexpr4": func(c *Config) { c.Complete = true; c.Budget.MaxJFExprSize = 4 },
	}
	for _, d := range Domains() {
		if d != "const" {
			modes["domain="+d] = func(c *Config) { c.Domain = d }
		}
	}
	for name, tweak := range modes {
		c := Config{Kind: Polynomial, UseMOD: true, UseReturnJFs: true}
		tweak(&c)
		out[Polynomial.String()+"/"+name] = c
	}
	return out
}

// pinPrograms returns every suite program and every curated core
// program (recursion included), keyed by file name.
func pinPrograms(t *testing.T) map[string]string {
	t.Helper()
	progs := make(map[string]string)
	for _, spec := range suite.Programs() {
		progs[spec.Name+".f"] = suite.Source(spec)
	}
	files, err := filepath.Glob(filepath.Join("..", "internal", "core", "testdata", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no core testdata programs: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs["core/"+filepath.Base(path)] = string(src)
	}
	return progs
}

// TestOutputPins holds every observable output of the analyzer fixed:
// for each program and configuration, the SHA-256 of the result
// fingerprint (constants, substitutions, jump functions, statistics,
// warnings including the expression-size truncation count, and the
// transformed source) must equal the recorded one, serially and with
// four workers. Refactors of the analysis core must leave every line
// of testdata/outputs.golden untouched; regenerate it only for a change
// that is meant to alter outputs, with -update-pins.
func TestOutputPins(t *testing.T) {
	progs := pinPrograms(t)
	cfgs := pinConfigs()
	var lines []string
	for name, src := range progs {
		for cname, cfg := range cfgs {
			var hashes [2]string
			for i, par := range []int{1, 4} {
				sum := sha256.Sum256([]byte(analyzeAt(t, name, src, cfg, par)))
				hashes[i] = hex.EncodeToString(sum[:12])
			}
			if hashes[0] != hashes[1] {
				t.Errorf("%s %s: parallel fingerprint %s differs from serial %s", name, cname, hashes[1], hashes[0])
			}
			lines = append(lines, fmt.Sprintf("%s %s %s", name, cname, hashes[0]))
		}
	}
	sort.Strings(lines)

	if *updatePins {
		if err := os.WriteFile(pinsPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readPins(t)
	if len(want) != len(lines) {
		t.Errorf("%d pins recorded, %d computed", len(want), len(lines))
	}
	for _, line := range lines {
		key := line[:strings.LastIndexByte(line, ' ')]
		if w, ok := want[key]; !ok {
			t.Errorf("no pin recorded for %s", key)
		} else if w != line {
			t.Errorf("output changed: got %q, pinned %q", line, w)
		}
	}
}

// readPins loads the golden file as a map from "program config" to its
// full line.
func readPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pinsPath)
	if err != nil {
		t.Fatalf("missing pins (run with -update-pins): %v", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			out[line[:i]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

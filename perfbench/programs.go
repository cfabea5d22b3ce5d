package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/gen"
	"repro/internal/jump"
	"repro/internal/memo"
	"repro/ipcp"
)

// Size classes of generated programs, by procedure count. At the seed
// commit they measured about 300, 1.3k and 5k lines.
var classProcs = map[string]int{"small": 16, "medium": 64, "large": 256}

var classes = []string{"small", "medium", "large"}

// classOf buckets any program, suite or generated, by line count.
func classOf(lines int) string {
	switch {
	case lines < 1000:
		return "small"
	case lines < 3000:
		return "medium"
	default:
		return "large"
	}
}

func lineCount(src string) int { return strings.Count(src, "\n") }

func genProgram(seed int64, class string) string {
	return conforming(gen.Program(gen.Config{Seed: seed, NumProcs: classProcs[class]}))
}

// commonActual matches a COMMON scalar of a generated program (NG0,
// NG1, ...) standing alone as an argument.
var commonActual = regexp.MustCompile(`([(,]\s*)(NG\d+)(\s*[,)])`)

// conforming rewrites every COMMON variable passed alone as an argument
// into the expression (NGk + 0), which is passed as a copy. The
// generator passes COMMON variables by reference to procedures that
// also write them under their COMMON name; FORTRAN 77 forbids that
// aliasing, and the analyzer does not handle every case of it (a
// formal bound to a COMMON variable that a nested call modifies keeps
// its entry constant). The benchmark measures conforming programs so
// that every answer the interpreter checks is one the analyzer claims
// to get right. Declarations are left alone; an argument of an
// intrinsic or an array subscript gets the same value either way.
func conforming(src string) string {
	lines := strings.SplitAfter(src, "\n")
	for i, l := range lines {
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "INTEGER") || strings.HasPrefix(t, "COMMON") {
			continue
		}
		// Two passes: adjacent matches share a delimiter.
		for j := 0; j < 2; j++ {
			l = commonActual.ReplaceAllString(l, "$1($2 + 0)$3")
		}
		lines[i] = l
	}
	return strings.Join(lines, "")
}

// benchConfig is one analysis configuration, in the public API's form
// and in the core driver's form the traced run calls directly.
type benchConfig struct {
	name string
	kind ipcp.Kind
	dom  string
}

// The cold-corpus configuration mix, in parts per 20: the CLI default,
// polynomial jump functions, and a small share of two other domains.
var configMix = []struct {
	cfg   benchConfig
	parts int
}{
	{benchConfig{"default", ipcp.PassThrough, ""}, 9},
	{benchConfig{"polynomial", ipcp.Polynomial, ""}, 7},
	{benchConfig{"interval", ipcp.PassThrough, "interval"}, 2},
	{benchConfig{"cond-const", ipcp.PassThrough, "cond-const"}, 2},
}

func (c benchConfig) public(parallelism int) ipcp.Config {
	cfg := ipcp.DefaultConfig()
	cfg.Kind = c.kind
	cfg.Domain = c.dom
	cfg.Parallelism = parallelism
	return cfg
}

// core mirrors what ipcp.Config produces for the core driver; the
// traced run checks that both paths find the same substitutions.
func (c benchConfig) core(parallelism int) (core.Config, error) {
	d, err := domain.Lookup(c.dom)
	if err != nil {
		return core.Config{}, err
	}
	kind := jump.PassThrough
	if c.kind == ipcp.Polynomial {
		kind = jump.Polynomial
	}
	return core.Config{
		Jump:        jump.Config{Kind: kind, UseMOD: true, UseReturnJFs: true},
		Domain:      d,
		Parallelism: parallelism,
	}, nil
}

// wire is the configuration in the HTTP request form.
func (c benchConfig) wire() map[string]any {
	m := map[string]any{"kind": "passthrough"}
	if c.kind == ipcp.Polynomial {
		m["kind"] = "polynomial"
	}
	if c.dom != "" {
		m["domain"] = c.dom
	}
	return m
}

// configDraw returns n configurations in the configMix proportions,
// shuffled by r: every seed gets the same mix, in a different order.
func configDraw(r *rand.Rand, n int) []benchConfig {
	total := 0
	for _, m := range configMix {
		total += m.parts
	}
	var out []benchConfig
	for _, m := range configMix {
		k := (n*m.parts + total/2) / total
		for i := 0; i < k; i++ {
			out = append(out, m.cfg)
		}
	}
	for len(out) < n {
		out = append(out, configMix[0].cfg)
	}
	out = out[:n]
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// localInit matches a generated local's initialization, "  L3 = 14" or
// "  L3 = (-5)": changing its value keeps the unit's interface and line
// count, and generated programs stay valid for any small value.
var localInit = regexp.MustCompile(`(?m)^(\s+L\d+ = )(\(-\d+\)|\d+)$`)

// tweakConstant rewrites one local initialization in a unit to a new
// value; ok is false when the unit has none.
func tweakConstant(r *rand.Rand, unit string) (string, bool) {
	locs := localInit.FindAllStringSubmatchIndex(unit, -1)
	if len(locs) == 0 {
		return "", false
	}
	loc := locs[r.Intn(len(locs))]
	old := unit[loc[4]:loc[5]]
	v := old
	for v == old {
		n := r.Intn(61) - 20
		v = strconv.Itoa(n)
		if n < 0 {
			v = "(" + v + ")"
		}
	}
	return unit[:loc[4]] + v + unit[loc[5]:], true
}

var header = regexp.MustCompile(`(?m)^\s*(?:INTEGER\s+FUNCTION|SUBROUTINE|FUNCTION)\s+\w+\(([^)]*)\)`)

// renameFormal renames a unit's first formal everywhere in the unit:
// the program means the same, but the unit's interface changed, which
// forces a session's full-rebuild path. ok is false for units without
// formals.
func renameFormal(unit string) (string, bool) {
	m := header.FindStringSubmatch(unit)
	if m == nil || strings.TrimSpace(m[1]) == "" {
		return "", false
	}
	old := strings.TrimSpace(strings.Split(m[1], ",")[0])
	repl := "Q" + old
	if strings.HasPrefix(old, "Q") {
		repl = old[1:]
	}
	word := regexp.MustCompile(`\b` + regexp.QuoteMeta(old) + `\b`)
	return word.ReplaceAllString(unit, repl), true
}

func progName(prefix string, i int) string { return fmt.Sprintf("%s%d.f", prefix, i) }

// splitUnits splits a program at unit boundaries, as sessions and the
// analysis cache do; an unsplittable text is one unit.
func splitUnits(name, src string) []string {
	chunks, ok := memo.Split(name, src)
	if !ok {
		return []string{src}
	}
	out := make([]string, len(chunks))
	for i, c := range chunks {
		out[i] = c.Text
	}
	return out
}

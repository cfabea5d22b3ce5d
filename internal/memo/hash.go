package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/ssa"
)

// hashStrings content-addresses a sequence of strings. Each part is
// length-prefixed so that concatenation ambiguity cannot alias two
// different sequences to one key.
func hashStrings(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ProgramFingerprint content-addresses a whole analysis request — the
// exact source files plus the configuration axes that select which
// memoized artifacts the analysis can reuse (jump-function kind, MOD,
// return jump functions, full substitution, gating, completeness, the
// expression-size budget, and the abstract domain). Axes that never
// change the cached artifacts — parallelism, solver choice, step/round
// budgets, fail-fast, the cache handle itself — are deliberately
// excluded, so requests differing only in those hash identically.
//
// The fingerprint is the natural routing key for a fleet of analysis
// servers: sending equal fingerprints to the same backend maximizes
// that backend's memo reuse, because this is the same hashing
// discipline the cache keys use. The leading version tag keeps the key
// space disjoint from every other hashStrings use.
func ProgramFingerprint(files []File, c core.Config) string {
	parts := make([]string, 0, 2*len(files)+2)
	parts = append(parts, "ipcp-program-fp/v1")
	for _, f := range files {
		parts = append(parts, f.Name, f.Src)
	}
	parts = append(parts, substFP(c))
	return hashStrings(parts...)
}

// jumpFP fingerprints everything the jump-function construction phase
// reads from a configuration. Solver choice, step budgets, deadlines,
// and parallelism are deliberately excluded: none of them changes the
// expressions built (parallel construction is bit-identical by the
// repo's standing guarantee, and the deadline can only abort a build —
// aborted builds are never cached). The abstract domain is excluded
// too: jump-function construction is symbolic and domain-independent,
// so the cached expressions are shared across domains by design — only
// their evaluation (the solver's transfer step) is per-domain.
func jumpFP(c core.Config) string {
	return fmt.Sprintf("k=%d;mod=%t;ret=%t;fs=%t;g=%t;mx=%d",
		c.Jump.Kind, c.Jump.UseMOD, c.Jump.UseReturnJFs,
		c.Jump.FullSubstitution, c.Jump.Gated, c.Budget.MaxExprSize)
}

// substFP fingerprints the configuration axes the substitution pass
// reads, beyond the entry environments (fingerprinted separately). The
// domain is included: two domains can prove the same constant entry
// environment yet drive pruning and dead-site marking differently, so
// substitution decisions are never shared across domains.
func substFP(c core.Config) string {
	return jumpFP(c) + fmt.Sprintf(";prune=%t;dom=%s", c.Complete, domain.NameOf(c.Domain))
}

// entryFP renders one procedure's constant entry environment as a
// canonical string, for the whole-program substitution key.
func entryFP(env map[ssa.Var]int64) string {
	if len(env) == 0 {
		return ""
	}
	parts := make([]string, 0, len(env))
	for v, k := range env {
		parts = append(parts, fmt.Sprintf("%s=%d", v, k))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

package core

import (
	"repro/internal/domain"
	"repro/internal/sem"
)

// Value contexts (Padhye & Khedker, "Interprocedural Data Flow Analysis
// in Soot using Value Contexts") give the worklist solver a reuse axis
// stronger than text identity: a procedure's propagation step is a pure
// function of its incoming VAL row, so when the row repeats — across
// edits in a compiler-daemon session, or across analyses of related
// programs — the solver can replay the step's recorded contributions
// instead of re-evaluating every jump function.
//
// Reuse is provably equivalent to recomputation under three conditions,
// all enforced at the consultation site in solveWorklist:
//
//  1. The procedure's jump functions are unchanged since the record was
//     stored. The store's owner (a session) guarantees this by dropping
//     a procedure's records whenever the procedure's jump functions are
//     rebuilt (the edit blast radius), and the driver consults the memo
//     only in the requested configuration's attempt, never in a
//     degradation fallback.
//  2. The procedure has no self-call site. The evaluation environment
//     reads the live VAL matrix, so a self-call's lowering would mutate
//     the procedure's own row mid-step; such procedures always take the
//     plain path.
//  3. The analysis is not in complete-propagation mode, whose per-round
//     pruning changes the site set between solves of one analysis.
//
// Under those conditions the recorded contribution values equal what a
// cold evaluation would produce (the row is read-only during the step),
// and replaying them through the same Lower calls reproduces the cold
// solver's state transitions, statistics, and budget accounting exactly.

// ContextMemo memoizes per-procedure propagation steps keyed by value
// context: the procedure plus the canonical encoding of its incoming
// VAL row. Implementations must be safe for concurrent use.
type ContextMemo interface {
	// Lookup returns the recorded step for (p, key), if any.
	Lookup(p *sem.Procedure, key string) (*ContextRecord, bool)
	// Store offers a freshly recorded step. Records are immutable after
	// the call.
	Store(p *sem.Procedure, key string, rec *ContextRecord)
}

// ContextRecord is one recorded propagation step: the work it costs
// (jump-function evaluations, for statistics and budget accounting) and
// the abstract contributions it pushes into callees. ⊤ contributions
// are omitted — ⊤ is the meet identity, so they can never change a
// cell.
type ContextRecord struct {
	Evals    int
	Contribs []ContextContrib
}

// ContextContrib is one (callee, slot, value) contribution.
type ContextContrib struct {
	Callee *sem.Procedure
	Formal int            // formal index; ignored when Global is set
	Global *sem.GlobalVar // nil for formal contributions
	Value  domain.Elem
}

// ctxKey renders procedure pi's incoming VAL row — its formal row then
// its global row — as a canonical byte string via the domain's
// injective cell encoding (for the constant domain: 'T' for ⊤, 'B' for
// ⊥, and 'C' followed by the decimal constant, each cell
// ';'-terminated, exactly the pre-generalization format). buf is reused
// across calls to keep the per-pop allocation at one string.
func ctxKey(vals *Values, pi int, buf []byte) (string, []byte) {
	buf = buf[:0]
	for _, v := range vals.formalRow(pi) {
		buf = vals.dom.AppendKey(buf, v)
	}
	for _, v := range vals.globalRow(pi) {
		buf = vals.dom.AppendKey(buf, v)
	}
	return string(buf), buf
}

// replayContext applies a recorded propagation step: the evaluation
// count is credited to the statistics and the budget checker exactly as
// the cold evaluations would have been, and each contribution is met
// into the live VAL matrix (pushing the callee on change, like the cold
// path).
func (a *Analysis) replayContext(vals *Values, rec *ContextRecord, push func(*sem.Procedure)) {
	a.Stats.JFEvaluations += rec.Evals
	a.chk.Add(rec.Evals)
	for i := range rec.Contribs {
		cb := &rec.Contribs[i]
		var changed bool
		if cb.Global != nil {
			changed = vals.LowerGlobal(cb.Callee, cb.Global, cb.Value)
		} else {
			changed = vals.LowerFormal(cb.Callee, cb.Formal, cb.Value)
		}
		if changed {
			a.Stats.Lowerings++
			push(cb.Callee)
		}
	}
}

// Robustness surface of the public API: structured internal errors,
// resource budgets, and graceful-degradation reporting. See
// docs/robustness.md for the full contract.
package ipcp

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/guard"
)

// Phase names the analysis phase where an internal fault occurred: lex,
// parse, sem, lookup, graph, jump, solve, subst, assemble or clone (the
// lexer and the phases a trace names), or analyze when no phase claimed
// the fault.
type Phase string

const (
	PhaseLex   Phase = "lex"
	PhaseParse Phase = "parse"
	PhaseSem   Phase = "sem"
	PhaseJump  Phase = "jump"
	PhaseSolve Phase = "solve"
	PhaseSubst Phase = "subst"
)

// InternalError reports a bug in the analyzer itself: an internal panic
// that Analyze intercepted and converted into an error. User-facing
// entry points never propagate raw panics; they return *InternalError
// instead, carrying enough context (phase, program unit, stack) to file
// a useful report.
type InternalError struct {
	// Phase is the pipeline stage that failed.
	Phase Phase
	// Unit is the program unit (procedure name) being processed when
	// the fault hit, when known; empty otherwise.
	Unit string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack captured at the panic site.
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Unit != "" {
		return fmt.Sprintf("ipcp: internal error in %s (%s): %v", e.Phase, e.Unit, e.Value)
	}
	return fmt.Sprintf("ipcp: internal error in %s: %v", e.Phase, e.Value)
}

// Budget bounds the resources an analysis may consume. The zero value
// means unlimited on every axis; wall-clock limits come from the
// context passed to AnalyzeContext. When a budget axis is exhausted the
// analysis does not fail — it degrades along a sound fallback chain
// (see Result.Degradations) and still returns a correct, if less
// precise, result.
type Budget struct {
	// MaxSolverSteps caps jump-function evaluations during
	// interprocedural propagation.
	MaxSolverSteps int
	// MaxRounds caps complete-propagation rounds (Config.Complete).
	MaxRounds int
	// MaxJFExprSize caps the node count of any single symbolic
	// jump-function expression; larger expressions are truncated to an
	// opaque (non-constant) value.
	MaxJFExprSize int
}

func (b Budget) internal() guard.Budget {
	return guard.Budget{
		MaxSolverSteps: b.MaxSolverSteps,
		MaxRounds:      b.MaxRounds,
		MaxExprSize:    b.MaxJFExprSize,
	}
}

// Warning describes one graceful-degradation step the analyzer took to
// stay within its Budget (or context deadline).
type Warning struct {
	// Axis is the budget axis that was exhausted: "deadline",
	// "solver-steps", "rounds", or "expr-size".
	Axis string
	// From is the configuration or behavior that exhausted the budget.
	From string
	// To is the sound configuration fallen back to; "no-constants"
	// means the trivial all-⊥ solution (every fallback was spent).
	To string
	// Detail is the underlying budget error's message.
	Detail string
}

func (w Warning) String() string {
	return fmt.Sprintf("degraded [%s]: %s → %s (%s)", w.Axis, w.From, w.To, w.Detail)
}

// BudgetError reports that a FailFast analysis ran out of a resource
// budget (or its context was cancelled) before completing. It is
// returned only when Config.FailFast is set; without it the analyzer
// degrades instead and the same information arrives as
// Result.Degradations. It is distinct from *InternalError: a
// BudgetError is the environment's fault (deadline, budget), not a bug
// in the analyzer.
type BudgetError struct {
	// Axis is the exhausted budget axis: "deadline", "solver-steps",
	// "rounds", "jf-expr-size" — or "fault" for injected test faults.
	Axis string
	// Site is the pipeline site that noticed (e.g. "solve", "jump").
	Site string
	// Detail is the underlying error's message.
	Detail string
	cause  error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("ipcp: budget exhausted [%s] at %s: %s", e.Axis, e.Site, e.Detail)
}

// Unwrap exposes the underlying guard error so errors.Is/As reach the
// context error (context.Canceled, context.DeadlineExceeded) beneath.
func (e *BudgetError) Unwrap() error { return e.cause }

// budgetError wraps a FailFast attempt failure into a *BudgetError.
func budgetError(err error) error {
	var ex *guard.Exhausted
	if errors.As(err, &ex) {
		return &BudgetError{Axis: string(ex.Axis), Site: ex.Site, Detail: err.Error(), cause: err}
	}
	return &BudgetError{Axis: "fault", Detail: err.Error(), cause: err}
}

// recoverInternal converts a panic escaping the analysis pipeline into
// an *InternalError assigned to *err. Panics already attributed by the
// pipeline's recovery sites arrive as *guard.PanicError and keep their
// phase, unit, and original stack; anything else is labelled with the
// catch-all phase "analyze" and the stack captured here.
func recoverInternal(err *error) {
	r := recover()
	if r == nil {
		return
	}
	ie := &InternalError{Phase: "analyze", Value: r, Stack: debug.Stack()}
	if pe, ok := r.(*guard.PanicError); ok {
		ie.Phase = Phase(pe.Site)
		ie.Unit = pe.Unit
		ie.Value = pe.Value
		ie.Stack = pe.Stack
	}
	*err = ie
}

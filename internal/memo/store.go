package memo

import (
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/intra"
	"repro/internal/jump"
	"repro/internal/modref"
	"repro/internal/sem"
	"repro/internal/ssa"
	"repro/internal/subst"
	"repro/internal/symbolic"
)

// Store holds one program's artifacts keyed by the program's own
// procedures: each procedure's jump-function build product and
// substitution decision, per configuration. A program derived by the
// replace step shares every untouched *sem.Procedure with its donor, so
// Derive carries the donor's artifacts over by pointer, minus the blast
// radius. A session owns one store; the cache keeps one per world,
// which also holds whole-program results. A Store is safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	jumps  map[string]*jumpArts  // by jumpFP
	substs map[string]*substArts // by substKey
}

// jumpArts are the jump functions built under one configuration.
type jumpArts struct {
	procs map[*sem.Procedure]jumpArt
	bytes int64 // sum over procs
	// whole is the whole-program build (cache worlds only).
	whole *funcsEntry
}

type jumpArt struct {
	pm    *jump.ProcMemo
	bytes int64
}

// funcsEntry is a cached whole-program jump-function build. Procs are
// stored without their SSA/value-numbering state (only complete
// propagation reads those, and complete propagation bypasses this
// cache).
type funcsEntry struct {
	returns map[*sem.Procedure]*intra.ReturnSummary
	procs   map[*sem.Procedure]*jump.ProcFunctions
	trunc   int
}

// substArts are the substitution decisions made under one
// configuration.
type substArts struct {
	procs map[*sem.Procedure]substArt
	bytes int64 // sum over procs
	// whole holds whole-program results by entryFP-based key (cache
	// worlds only).
	whole map[string]*subst.Result
}

// substArt is one procedure's substitution decision. It is valid while
// the procedure stays outside every blast radius and its constant entry
// environment, the pass's only input from the solver, is unchanged.
type substArt struct {
	count int
	repl  map[ast.Expr]string
	entry map[ssa.Var]int64
	bytes int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{jumps: make(map[string]*jumpArts), substs: make(map[string]*substArts)}
}

// Derive returns the store of a program the replace step derived from
// this store's program: every per-procedure artifact except those of
// the procedures in blast, and no whole-program result. carried is the
// estimated size of the artifacts kept.
func (st *Store) Derive(blast []*sem.Procedure) (ns *Store, carried int64) {
	st.mu.Lock()
	ns = NewStore()
	for fp, ja := range st.jumps {
		ns.jumps[fp] = &jumpArts{procs: maps.Clone(ja.procs), bytes: ja.bytes}
	}
	for key, sa := range st.substs {
		ns.substs[key] = &substArts{procs: maps.Clone(sa.procs), bytes: sa.bytes, whole: make(map[string]*subst.Result)}
	}
	st.mu.Unlock()
	return ns, ns.Drop(blast)
}

// Drop deletes the artifacts of the procedures in blast in place, for a
// store whose program the replace step replaced and no one else holds
// (a session's), and returns the estimated size of those left.
func (st *Store) Drop(blast []*sem.Procedure) (kept int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ja := range st.jumps {
		for _, p := range blast {
			ja.bytes -= ja.procs[p].bytes
			delete(ja.procs, p)
		}
		kept += ja.bytes
	}
	for _, sa := range st.substs {
		for _, p := range blast {
			sa.bytes -= sa.procs[p].bytes
			delete(sa.procs, p)
		}
		kept += sa.bytes
	}
	return kept
}

func (st *Store) jumpArts(fp string) *jumpArts {
	ja := st.jumps[fp]
	if ja == nil {
		ja = &jumpArts{procs: make(map[*sem.Procedure]jumpArt)}
		st.jumps[fp] = ja
	}
	return ja
}

func (st *Store) substArts(key string) *substArts {
	sa := st.substs[key]
	if sa == nil {
		sa = &substArts{procs: make(map[*sem.Procedure]substArt), whole: make(map[string]*subst.Result)}
		st.substs[key] = sa
	}
	return sa
}

// Hooks returns one analysis's view of the store over program f.
func (st *Store) Hooks(f Front) *Hooks { return &Hooks{st: st, f: f} }

// Hooks is one analysis's view of a Store: the core.MemoHooks the
// driver consults. It serves each procedure's stored artifacts and
// stores the ones the analysis builds. Views of a cache world also
// serve and store whole-program results, count into the cache's
// counters and charge its byte budget.
type Hooks struct {
	st *Store
	f  Front
	c  *Cache // nil outside a cache
	w  *world // the cache world st belongs to

	jumps, substs atomic.Int64 // reused per-procedure artifacts
}

// Reused returns how many procedures' jump functions and substitution
// decisions the analysis reused.
func (h *Hooks) Reused() (jumps, substs int) {
	return int(h.jumps.Load()), int(h.substs.Load())
}

// Graph implements core.MemoHooks.
func (h *Hooks) Graph() (*callgraph.Graph, *modref.Info) { return h.f.Graph, h.f.Mod }

// Funcs implements core.MemoHooks. The per-procedure memo serves a
// snapshot taken here, so every procedure gets one answer for the whole
// build even while concurrent analyses store into the same store.
func (h *Hooks) Funcs(c core.Config, jc jump.Config, b *symbolic.Builder) (*jump.Functions, int, jump.Memo) {
	h.st.mu.Lock()
	ja := h.st.jumpArts(jumpFP(c))
	if fe := ja.whole; fe != nil {
		h.st.mu.Unlock()
		h.c.count(1, 0)
		return &jump.Functions{
			Config: jc, Graph: h.f.Graph, Mod: h.f.Mod, Builder: b,
			Returns: fe.returns, Procs: fe.procs,
		}, fe.trunc, nil
	}
	ready := maps.Clone(ja.procs)
	h.st.mu.Unlock()
	h.jumps.Add(int64(len(ready)))
	h.c.count(uint64(len(ready)), uint64(1+len(h.f.Prog.Order)-len(ready)))
	return nil, 0, &jumpMemo{h: h, ja: ja, ready: ready}
}

// StoreFuncs implements core.MemoHooks: a cache world keeps the whole
// build.
func (h *Hooks) StoreFuncs(c core.Config, fns *jump.Functions, trunc int) {
	if h.w == nil {
		return
	}
	fe := &funcsEntry{
		returns: fns.Returns,
		procs:   make(map[*sem.Procedure]*jump.ProcFunctions, len(fns.Procs)),
		trunc:   trunc,
	}
	var bytes int64 = 1024
	for _, sum := range fns.Returns {
		bytes += summaryBytes(sum)
	}
	for p, pf := range fns.Procs {
		if pf == nil {
			continue
		}
		// Drop the SSA and value-numbering state: propagation and
		// substitution never read them, and they dominate retained size.
		fe.procs[p] = &jump.ProcFunctions{Proc: pf.Proc, Sites: pf.Sites}
		bytes += sitesBytes(pf.Sites)
	}
	h.st.mu.Lock()
	ja := h.st.jumpArts(jumpFP(c))
	if ja.whole != nil {
		h.st.mu.Unlock()
		return // a concurrent identical attempt won the race
	}
	ja.whole = fe
	h.st.mu.Unlock()
	h.charge(bytes)
}

// substKey selects the decisions an analysis may reuse. The "noret"
// flag separates runs without return summaries (the all-⊥ fallback
// analysis) from normal runs of the same configuration.
func substKey(c core.Config, opts subst.Options) string {
	key := substFP(c)
	if opts.UseReturnJFs && len(opts.Returns) == 0 {
		key += ";noret"
	}
	return key
}

// wholeSubstKey keys a whole-program substitution: the configuration
// and every procedure's entry environment.
func (h *Hooks) wholeSubstKey(key string, opts subst.Options) string {
	order := h.f.Prog.Order
	parts := make([]string, 0, 2*len(order)+1)
	parts = append(parts, key)
	for _, p := range order {
		parts = append(parts, p.Name, entryFP(opts.Entry(p)))
	}
	return hashStrings(parts...)
}

// Subst implements core.MemoHooks. Under complete propagation no
// decision is reused per procedure: its rounds rebuild the callees'
// return jump functions under their entry environments, which an edit
// outside the procedure's blast radius can change.
func (h *Hooks) Subst(c core.Config, opts subst.Options) (*subst.Result, subst.Memo) {
	if opts.Entry == nil {
		return nil, nil
	}
	key := substKey(c, opts)
	var whole string
	if h.w != nil {
		whole = h.wholeSubstKey(key, opts)
	}
	h.st.mu.Lock()
	defer h.st.mu.Unlock()
	sa := h.st.substArts(key)
	if res := sa.whole[whole]; res != nil {
		h.c.count(1, 0)
		return res, nil
	}
	h.c.count(0, 1) // a no-op for a session's view
	m := &substMemo{h: h, sa: sa, entry: opts.Entry}
	if !c.Complete {
		m.ready = maps.Clone(sa.procs)
	}
	return nil, m
}

// StoreSubst implements core.MemoHooks: a cache world keeps the whole
// result.
func (h *Hooks) StoreSubst(c core.Config, opts subst.Options, res *subst.Result) {
	if h.w == nil || opts.Entry == nil || res == nil {
		return
	}
	key := substKey(c, opts)
	whole := h.wholeSubstKey(key, opts)
	h.st.mu.Lock()
	sa := h.st.substArts(key)
	if _, dup := sa.whole[whole]; dup {
		h.st.mu.Unlock()
		return
	}
	sa.whole[whole] = res
	h.st.mu.Unlock()
	h.charge(int64(len(res.Replacements))*96 + int64(len(res.PerProc))*64 + 512)
}

// charge adds bytes to the cache world's footprint; stores into an
// evicted world are not charged.
func (h *Hooks) charge(bytes int64) {
	if h.w == nil {
		return
	}
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.worlds[h.w.key]; e != nil && e.world == h.w {
		c.addBytes(e, bytes)
	}
}

// jumpMemo is one jump.Build's jump.Memo.
type jumpMemo struct {
	h     *Hooks
	ja    *jumpArts
	ready map[*sem.Procedure]jumpArt
}

// Lookup reads the snapshot only, so concurrent workers may call it.
func (m *jumpMemo) Lookup(p *sem.Procedure) *jump.ProcMemo { return m.ready[p].pm }

func (m *jumpMemo) Store(p *sem.Procedure, pm *jump.ProcMemo) {
	bytes := 256 + summaryBytes(pm.Summary) + sitesBytes(pm.Sites)
	st := m.h.st
	st.mu.Lock()
	if _, dup := m.ja.procs[p]; dup {
		st.mu.Unlock()
		return
	}
	m.ja.procs[p] = jumpArt{pm: pm, bytes: bytes}
	m.ja.bytes += bytes
	st.mu.Unlock()
	m.h.charge(bytes)
}

// substMemo is one subst.Run's subst.Memo. ready is nil when no
// decision may be reused.
type substMemo struct {
	h     *Hooks
	sa    *substArts
	ready map[*sem.Procedure]substArt
	entry func(p *sem.Procedure) map[ssa.Var]int64
}

// Lookup reads the snapshot only. A decision is reused only while the
// procedure's entry environment equals the one it was made under.
func (m *substMemo) Lookup(p *sem.Procedure) (int, map[ast.Expr]string, bool) {
	if m.ready == nil {
		return 0, nil, false
	}
	if art, ok := m.ready[p]; ok && maps.Equal(art.entry, m.entry(p)) {
		m.h.substs.Add(1)
		m.h.c.count(1, 0)
		return art.count, art.repl, true
	}
	m.h.c.count(0, 1)
	return 0, nil, false
}

// Store keeps the procedure's latest decision.
func (m *substMemo) Store(p *sem.Procedure, count int, repl map[ast.Expr]string) {
	if m.ready == nil {
		return
	}
	art := substArt{count: count, repl: repl, entry: m.entry(p), bytes: int64(len(repl))*96 + 128}
	st := m.h.st
	st.mu.Lock()
	delta := art.bytes - m.sa.procs[p].bytes
	m.sa.procs[p] = art
	m.sa.bytes += delta
	st.mu.Unlock()
	m.h.charge(delta)
}

// exprBytes estimates an expression's retained size.
func exprBytes(e *symbolic.Expr) int64 {
	if e == nil {
		return 0
	}
	return int64(e.Size()) * 112
}

func summaryBytes(sum *intra.ReturnSummary) int64 {
	if sum == nil {
		return 0
	}
	var bytes int64 = 128
	for _, e := range sum.Formals {
		bytes += exprBytes(e)
	}
	for _, e := range sum.Globals {
		bytes += exprBytes(e)
	}
	return bytes + exprBytes(sum.Result)
}

func sitesBytes(sites []*jump.SiteFunctions) int64 {
	var bytes int64
	for _, sf := range sites {
		for _, e := range sf.Formals {
			bytes += exprBytes(e)
		}
		for _, e := range sf.Globals {
			bytes += exprBytes(e)
		}
		bytes += 160
	}
	return bytes
}

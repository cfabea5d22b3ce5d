package memo

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/intra"
	"repro/internal/jump"
	"repro/internal/lattice"
	"repro/internal/modref"
	"repro/internal/sem"
	"repro/internal/subst"
	"repro/internal/symbolic"
)

// Store holds one program's artifacts keyed by the program's own
// procedures, per configuration: each procedure's jump-function build
// product and substitution decision, the last build's jump-function
// tables, which the next build patches, and the VAL solutions of their
// forward jump functions. A program derived by the replace step shares
// every untouched *sem.Procedure with its donor, so Derive carries the
// donor's artifacts over by pointer, marks those the edit may have
// reached, and keeps the donor's tables and solutions for the derived
// program's first analysis to patch or carry. A session owns one store;
// the cache keeps one per world. A Store is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	jumps  map[string]*jumpArts  // by jumpFP
	substs map[string]*substArts // by substKey
}

// jumpArts are the jump functions built under one configuration.
type jumpArts struct {
	procs map[*sem.Procedure]jumpArt
	bytes int64 // sum over procs
	// tables are the last whole build's, for this store's program or,
	// until a build of it, for an earlier program it derives from, in
	// which case gone lists the procedures of that program since gone.
	// Every product in procs with Reuse Always is in tables.
	tables *funcsEntry
	gone   []*sem.Procedure
	// sols are the VAL solutions of the forward jump functions in
	// tables, by solveKey.
	sols map[string]*solution
}

type jumpArt struct {
	pm    *jump.ProcMemo
	bytes int64
}

// funcsEntry is a whole-program jump-function build of prog.
type funcsEntry struct {
	prog    *sem.Program
	returns map[*sem.Procedure]*intra.ReturnSummary
	procs   map[*sem.Procedure]*jump.ProcFunctions
	trunc   int
}

// solution is one solve's outcome: the VAL sets and solver statistics
// for the initial environment init.
type solution struct {
	vals  *core.Values
	stats core.Stats
	init  map[*sem.GlobalVar]lattice.Value
}

// substArts are the substitution decisions made under one
// configuration.
type substArts struct {
	procs map[*sem.Procedure]substArt
	bytes int64 // sum over procs
	// vals is the solution the decisions in procs were made under.
	vals *core.Values
	// whole holds whole-program results by entryFP-based key (cache
	// worlds only).
	whole map[string]*subst.Result
}

// substArt is one procedure's substitution decision. It holds while the
// procedure's VAL row is unchanged, unless stale: its jump functions
// have been rebuilt since.
type substArt struct {
	subst.Decision
	stale bool
	bytes int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{jumps: make(map[string]*jumpArts), substs: make(map[string]*substArts)}
}

// Derive returns the store of the program d derived from this store's:
// every artifact, with those of d's blast radius marked (see Advance),
// and no whole substitution result. carried is the estimated size of
// the per-procedure artifacts kept.
func (st *Store) Derive(d Delta) (ns *Store, carried int64) {
	st.mu.Lock()
	ns = NewStore()
	for fp, ja := range st.jumps {
		ns.jumps[fp] = &jumpArts{procs: maps.Clone(ja.procs), bytes: ja.bytes, tables: ja.tables,
			gone: slices.Clone(ja.gone), sols: maps.Clone(ja.sols)}
	}
	for key, sa := range st.substs {
		ns.substs[key] = &substArts{procs: maps.Clone(sa.procs), bytes: sa.bytes, vals: sa.vals,
			whole: make(map[string]*subst.Result)}
	}
	st.mu.Unlock()
	return ns, ns.Advance(d)
}

// Advance moves the store in place to the program d derived from its
// own, for a store no one else holds (a session's), and returns the
// estimated size of the per-procedure artifacts kept. A procedure of
// d.Blast that d keeps keeps its products, which are rebuilt only if a
// callee changed what callers see (jump.IfCalleesKept); one d replaces
// hands its products to its replacement to compare with (jump.Never);
// the products of a procedure d removes are dropped. Under d.Rewired
// every procedure of the radius is rebuilt. The decisions of replaced
// and removed procedures are dropped.
func (st *Store) Advance(d Delta) (kept int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	type mark struct {
		from, to *sem.Procedure
		reuse    jump.Reuse
		mod      bool
	}
	marks := make([]mark, len(d.Blast))
	var gone []*sem.Procedure
	for i, p := range d.Blast {
		m := mark{from: p, to: d.To.Prog.Procs[p.Name], reuse: jump.IfCalleesKept}
		if m.to != p {
			gone = append(gone, p)
			m.reuse = jump.Never
		}
		if d.Rewired {
			m.reuse = jump.Never
		}
		m.mod = m.to != nil && !d.To.Mod.SameMod(d.From.Mod, p.Name)
		marks[i] = m
	}
	for _, ja := range st.jumps {
		for _, m := range marks {
			art, ok := ja.procs[m.from]
			if !ok {
				continue
			}
			delete(ja.procs, m.from)
			if m.to == nil {
				ja.bytes -= art.bytes
				continue
			}
			pm := *art.pm
			pm.Reuse = max(pm.Reuse, m.reuse)
			pm.ModChanged = pm.ModChanged || m.mod
			ja.procs[m.to] = jumpArt{pm: &pm, bytes: art.bytes}
		}
		if ja.tables != nil {
			ja.gone = append(ja.gone, gone...)
		}
		kept += ja.bytes
	}
	for _, sa := range st.substs {
		for _, p := range gone {
			art, ok := sa.procs[p]
			if !ok {
				continue
			}
			delete(sa.procs, p)
			sa.bytes -= art.bytes
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
// driver consults. It serves each procedure's stored artifacts and the
// tables to patch, and commits what the analysis builds once each phase
// is done. Views of a cache world also serve and store whole-program
// results, count into the cache's counters and charge its byte budget.
// A view serves one analysis, whose attempts run one after another.
type Hooks struct {
	st *Store
	f  Front
	c  *Cache // nil outside a cache
	w  *world // the cache world st belongs to

	jm *jumpMemo  // the last jump build's memo
	sm *substMemo // the last substitution's memo

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
// build even while concurrent analyses commit into the same store.
func (h *Hooks) Funcs(c core.Config, jc jump.Config, b *symbolic.Builder) (*jump.Functions, int, jump.Memo) {
	h.st.mu.Lock()
	ja := h.st.jumpArts(jumpFP(c))
	if fe := ja.tables; fe != nil && fe.prog == h.f.Prog {
		h.st.mu.Unlock()
		h.c.count(1, 0)
		h.jm = nil
		return &jump.Functions{
			Config: jc, Graph: h.f.Graph, Mod: h.f.Mod, Builder: b,
			Returns: fe.returns, Procs: fe.procs,
		}, fe.trunc, nil
	}
	m := &jumpMemo{h: h, ready: make([]*jump.ProcMemo, len(h.f.Prog.Order)), base: ja.tables, gone: ja.gone}
	hits := 0
	for i, p := range h.f.Prog.Order {
		if art, ok := ja.procs[p]; ok {
			m.ready[i] = art.pm
			hits++
		}
	}
	h.st.mu.Unlock()
	h.c.count(uint64(hits), uint64(1+len(h.f.Prog.Order)-hits))
	h.jm = m
	return nil, 0, m
}

// StoreFuncs implements core.MemoHooks: it commits the build's
// per-procedure products and its tables together, so the tables always
// hold every product kept as is. A change to any forward jump function
// drops the solutions of the old ones. A cache world is charged for the
// tables.
func (h *Hooks) StoreFuncs(c core.Config, fns *jump.Functions, trunc int) {
	m := h.jm
	if m == nil {
		return
	}
	fp := jumpFP(c)
	var delta int64
	h.st.mu.Lock()
	ja := h.st.jumpArts(fp)
	for _, e := range m.put {
		art := jumpArt{pm: e.pm, bytes: ja.procs[e.p].bytes}
		if e.built {
			art.bytes = 256 + summaryBytes(e.pm.Summary) + sitesBytes(e.pm.Funcs.Sites)
			h.st.staleDecisions(fp, e.p)
		}
		delta += art.bytes - ja.procs[e.p].bytes
		ja.procs[e.p] = art
	}
	ja.bytes += delta
	if m.changed {
		ja.sols = nil
	}
	ja.tables = &funcsEntry{prog: h.f.Prog, returns: fns.Returns, procs: fns.Procs, trunc: trunc}
	ja.gone = nil
	h.st.mu.Unlock()
	// The analysis keeps its jump configuration, memo included: let go
	// of the snapshot and of the tables it patched.
	*m = jumpMemo{h: h}
	h.jm = nil
	if h.w == nil {
		return
	}
	bytes := delta + 1024
	for _, sum := range fns.Returns {
		bytes += summaryBytes(sum)
	}
	for _, pf := range fns.Procs {
		bytes += sitesBytes(pf.Sites)
	}
	h.charge(bytes)
}

// staleDecisions marks p's substitution decisions under the jump
// configuration fp stale. Callers hold st.mu.
func (st *Store) staleDecisions(fp string, p *sem.Procedure) {
	for key, sa := range st.substs {
		if art, ok := sa.procs[p]; ok && strings.HasPrefix(key, fp+";") {
			art.stale = true
			sa.procs[p] = art
		}
	}
}

// solveKey selects, among the solutions of one jump configuration's
// functions, those an analysis may carry: the domain fixes the values
// and the solver the statistics.
func solveKey(c core.Config) string {
	return fmt.Sprintf("dom=%s;solver=%d", domain.NameOf(c.Domain), c.Solver)
}

// Solution implements core.MemoHooks. A stored solution holds for the
// round-0 jump functions the analysis just served or committed, since
// a change to any forward jump function drops it; the program must also
// list the same procedures in the same order and start from the same
// DATA initializations.
func (h *Hooks) Solution(c core.Config, init map[*sem.GlobalVar]lattice.Value) (*core.Values, core.Stats, bool) {
	key := solveKey(c)
	h.st.mu.Lock()
	defer h.st.mu.Unlock()
	ja := h.st.jumps[jumpFP(c)]
	if ja == nil || ja.sols[key] == nil || !maps.Equal(ja.sols[key].init, init) {
		return nil, core.Stats{}, false
	}
	sol := ja.sols[key]
	vals, ok := sol.vals.For(h.f.Prog)
	if ok && vals != sol.vals {
		// Keep it over this program, not the one it was solved over.
		ja.sols[key] = &solution{vals: vals, stats: sol.stats, init: init}
	}
	return vals, sol.stats, ok
}

// StoreSolution implements core.MemoHooks.
func (h *Hooks) StoreSolution(c core.Config, init map[*sem.GlobalVar]lattice.Value, vals *core.Values, st core.Stats) {
	h.st.mu.Lock()
	defer h.st.mu.Unlock()
	ja := h.st.jumpArts(jumpFP(c))
	if ja.sols == nil {
		ja.sols = make(map[string]*solution)
	}
	ja.sols[solveKey(c)] = &solution{vals: vals, stats: st, init: init}
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
func (h *Hooks) Subst(c core.Config, opts subst.Options, vals *core.Values) (*subst.Result, subst.Memo) {
	h.sm = nil
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
	m := &substMemo{h: h, vals: vals}
	if !c.Complete {
		m.prev = sa.vals
		m.ready = make([]substArt, len(h.f.Prog.Order))
		for i, p := range h.f.Prog.Order {
			m.ready[i] = sa.procs[p]
		}
	}
	h.sm = m
	return nil, m
}

// StoreSubst implements core.MemoHooks: it commits the run's fresh
// decisions and its result together, and a cache world also keeps the
// result whole.
func (h *Hooks) StoreSubst(c core.Config, opts subst.Options, vals *core.Values, res *subst.Result) {
	if opts.Entry == nil || res == nil {
		return
	}
	key := substKey(c, opts)
	var whole string
	if h.w != nil {
		whole = h.wholeSubstKey(key, opts)
	}
	var delta int64
	h.st.mu.Lock()
	sa := h.st.substArts(key)
	if m := h.sm; m != nil && m.ready != nil {
		for _, e := range m.put {
			art := substArt{Decision: e.d, bytes: int64(len(e.d.Repl))*96 + 128}
			delta += art.bytes - sa.procs[e.p].bytes
			sa.procs[e.p] = art
		}
		sa.bytes += delta
		sa.vals = vals
		*m = substMemo{h: h}
		h.sm = nil
	}
	if _, dup := sa.whole[whole]; h.w != nil && !dup {
		sa.whole[whole] = res
		delta += int64(res.Total)*96 + int64(len(res.Procs))*64 + 512
	}
	h.st.mu.Unlock()
	h.charge(delta)
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

// jumpMemo is one jump.Build's jump.Memo. It reads the snapshot taken
// when the build started, by program order, and collects what the
// build reports, for StoreFuncs to commit.
type jumpMemo struct {
	h     *Hooks
	ready []*jump.ProcMemo
	base  *funcsEntry
	gone  []*sem.Procedure
	put   []jumpPut
	// changed records that some procedure's forward jump functions
	// differ from the ones its product held, or that it had none.
	changed bool
}

type jumpPut struct {
	p     *sem.Procedure
	pm    *jump.ProcMemo
	built bool
}

// Lookup reads the snapshot only.
func (m *jumpMemo) Lookup(p *sem.Procedure) *jump.ProcMemo {
	return m.ready[m.h.f.Prog.ProcIndex(p)]
}

func (m *jumpMemo) Store(p *sem.Procedure, pm *jump.ProcMemo) {
	if prev := m.Lookup(p); prev == nil || !jump.SameSites(prev.Funcs.Sites, pm.Funcs.Sites) {
		m.changed = true
	}
	m.put = append(m.put, jumpPut{p: p, pm: pm, built: true})
}

func (m *jumpMemo) Reuse(p *sem.Procedure, pm *jump.ProcMemo) {
	m.h.jumps.Add(1)
	if pm != m.Lookup(p) {
		m.put = append(m.put, jumpPut{p: p, pm: pm})
	}
}

func (m *jumpMemo) Base() (*jump.Functions, []*sem.Procedure) {
	if m.base == nil {
		return nil, nil
	}
	return &jump.Functions{Returns: m.base.returns, Procs: m.base.procs}, m.gone
}

// substMemo is one subst.Run's subst.Memo. ready, the snapshot by
// program order, is nil when no decision may be reused.
type substMemo struct {
	h     *Hooks
	vals  *core.Values
	ready []substArt
	prev  *core.Values
	put   []substPut
}

type substPut struct {
	p *sem.Procedure
	d subst.Decision
}

// Lookup reads the snapshot only. A decision holds while it is not
// stale and the procedure's VAL row equals the one it was made under.
func (m *substMemo) Lookup(p *sem.Procedure) (subst.Decision, bool) {
	if m.ready != nil {
		if art := m.ready[m.h.f.Prog.ProcIndex(p)]; art.Repl != nil && !art.stale && m.prev != nil && m.vals.SameRow(m.prev, p) {
			m.h.substs.Add(1)
			m.h.c.count(1, 0)
			return art.Decision, true
		}
	}
	m.h.c.count(0, 1)
	return subst.Decision{}, false
}

// Store collects a fresh decision for StoreSubst to commit.
func (m *substMemo) Store(p *sem.Procedure, d subst.Decision) {
	if m.ready != nil {
		m.put = append(m.put, substPut{p: p, d: d})
	}
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

// Procs calls visit with every procedure the store's artifacts refer
// to, naming where each was found: the keys of every table, each
// product's procedure, its summary's and its sites' callees, and the
// procedures of the programs its solutions are over. After an analysis
// of the store's program under every configuration the store holds,
// each is that program's procedure of its name.
func (st *Store) Procs(visit func(where string, p *sem.Procedure)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	funcs := func(where string, p *sem.Procedure, sum *intra.ReturnSummary, pf *jump.ProcFunctions) {
		visit(where, p)
		if sum != nil {
			visit(where+" summary", sum.Proc)
		}
		if pf != nil {
			visit(where+" functions", pf.Proc)
			for _, sf := range pf.Sites {
				visit(where+" site callee", sf.Callee)
			}
		}
	}
	for _, ja := range st.jumps {
		for p, art := range ja.procs {
			funcs("jump product", p, art.pm.Summary, art.pm.Funcs)
		}
		if fe := ja.tables; fe != nil {
			for p, sum := range fe.returns {
				funcs("jump returns", p, sum, nil)
			}
			for p, pf := range fe.procs {
				funcs("jump procs", p, nil, pf)
			}
		}
		for _, sol := range ja.sols {
			for _, p := range sol.vals.Program().Order {
				visit("solution", p)
			}
		}
	}
	for _, sa := range st.substs {
		for p := range sa.procs {
			visit("subst decision", p)
		}
		if sa.vals != nil {
			for _, p := range sa.vals.Program().Order {
				visit("subst solution", p)
			}
		}
		for _, res := range sa.whole {
			for _, p := range res.Procs {
				visit("subst whole result", p)
			}
		}
	}
}

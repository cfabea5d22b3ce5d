package memo

import (
	"sync"

	"repro/internal/core"
	"repro/internal/sem"
)

// maxContextsPerProc bounds how many distinct incoming rows one
// procedure may retain. Real edit sessions see a handful of rows per
// procedure; the cap only guards against a pathological client cycling
// a procedure through unbounded distinct constant tuples.
const maxContextsPerProc = 64

// ContextStore is a thread-safe core.ContextMemo: per-procedure
// propagation steps keyed by incoming lattice row. A session owns one
// store and keeps it sound across edits by invalidating every
// procedure in an edit's blast radius (exactly the procedures whose
// jump functions are rebuilt) and resetting wholesale on any full
// rebuild (which replaces the procedure identities the keys hang on).
type ContextStore struct {
	mu     sync.Mutex
	recs   map[*sem.Procedure]map[string]*core.ContextRecord
	hits   uint64
	misses uint64
	bytes  int64
}

// NewContextStore returns an empty store.
func NewContextStore() *ContextStore {
	return &ContextStore{recs: make(map[*sem.Procedure]map[string]*core.ContextRecord)}
}

// Lookup implements core.ContextMemo.
func (s *ContextStore) Lookup(p *sem.Procedure, key string) (*core.ContextRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.recs[p][key]; ok {
		s.hits++
		return rec, true
	}
	s.misses++
	return nil, false
}

// Store implements core.ContextMemo. Records are immutable once
// stored; a procedure past its row cap silently drops new records.
func (s *ContextStore) Store(p *sem.Procedure, key string, rec *ContextRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.recs[p]
	if m == nil {
		m = make(map[string]*core.ContextRecord)
		s.recs[p] = m
	}
	if _, dup := m[key]; dup {
		return
	}
	if len(m) >= maxContextsPerProc {
		return
	}
	m[key] = rec
	s.bytes += recordBytes(key, rec)
}

// ContextRecord aliases the driver's record type so callers of this
// package need not import core for the store alone.
type ContextRecord = core.ContextRecord

// Invalidate drops every record of p (the procedure's jump functions
// changed, so its steps can no longer be replayed).
func (s *ContextStore) Invalidate(p *sem.Procedure) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, rec := range s.recs[p] {
		s.bytes -= recordBytes(key, rec)
	}
	delete(s.recs, p)
}

// Reset drops everything (full rebuild: all procedure identities are
// replaced).
func (s *ContextStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = make(map[*sem.Procedure]map[string]*core.ContextRecord)
	s.bytes = 0
}

// Hits returns the number of successful lookups so far.
func (s *ContextStore) Hits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses returns the number of failed lookups so far.
func (s *ContextStore) Misses() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Bytes estimates the store's retained size, for session byte budgets.
func (s *ContextStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

func recordBytes(key string, rec *core.ContextRecord) int64 {
	return int64(len(key)) + int64(len(rec.Contribs))*48 + 96
}

// Procs calls visit with every procedure the store's records refer to:
// each record's procedure and the callees of its contributions.
func (s *ContextStore) Procs(visit func(where string, p *sem.Procedure)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, recs := range s.recs {
		visit("context", p)
		for _, rec := range recs {
			for _, cb := range rec.Contribs {
				visit("context contribution", cb.Callee)
			}
		}
	}
}

package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/ipcp"
)

// CacheCounters is the /statsz snapshot of one cache layer. Derived is
// the analysis cache's count of texts derived from a cached one by the
// replace step (always 0 for the result cache).
type CacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Derived   uint64 `json:"derived"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// resultCache memoizes whole rendered responses, keyed by (filename,
// source, normalized configuration, want flags). Only clean responses
// — status "ok", zero retries, no degradations — are stored, so a hit
// replays bytes the uncached path is guaranteed to reproduce. LRU
// entries are evicted past the byte budget.
type resultCache struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	lru       *list.List // of *resultEntry, front = most recent
	byKey     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type resultEntry struct {
	key   string
	body  []byte
	bytes int64
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// resultKey fingerprints everything a response's bytes depend on. The
// analyzer's results are byte-identical at every parallelism level, so
// execution knobs (parallelism, timeouts, retry policy) are excluded;
// every semantic axis and both want flags are included. Fields are
// length-prefixed so no boundary ambiguity exists.
func resultKey(filename, source string, cfg ipcp.Config, want RequestWant) string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	put(filename)
	put(source)
	put(fmt.Sprintf("k=%d;mod=%t;ret=%t;c=%t;g=%t;s=%d;d=%s;b=%d,%d,%d;jf=%t;tr=%t",
		cfg.Kind, cfg.UseMOD, cfg.UseReturnJFs, cfg.Complete, cfg.Gated, cfg.Solver,
		cfg.Domain,
		cfg.Budget.MaxSolverSteps, cfg.Budget.MaxRounds, cfg.Budget.MaxJFExprSize,
		want.JumpFunctions, want.Transformed))
	return string(h.Sum(nil))
}

func (rc *resultCache) get(key string) ([]byte, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el := rc.byKey[key]
	if el == nil {
		rc.misses++
		return nil, false
	}
	rc.hits++
	rc.lru.MoveToFront(el)
	return el.Value.(*resultEntry).body, true
}

func (rc *resultCache) put(key string, body []byte) {
	e := &resultEntry{key: key, body: body, bytes: int64(len(body)+len(key)) + 128}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.byKey[key] != nil {
		return // a concurrent identical request stored it first
	}
	rc.byKey[key] = rc.lru.PushFront(e)
	rc.bytes += e.bytes
	for rc.bytes > rc.maxBytes && rc.lru.Len() > 1 {
		back := rc.lru.Back()
		old := back.Value.(*resultEntry)
		rc.lru.Remove(back)
		delete(rc.byKey, old.key)
		rc.bytes -= old.bytes
		rc.evictions++
	}
}

func (rc *resultCache) counters() CacheCounters {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return CacheCounters{
		Hits: rc.hits, Misses: rc.misses, Evictions: rc.evictions,
		Entries: rc.lru.Len(), Bytes: rc.bytes, MaxBytes: rc.maxBytes,
	}
}

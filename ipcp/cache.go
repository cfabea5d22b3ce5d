package ipcp

import (
	"repro/internal/memo"
)

// Cache memoizes analysis work across Analyze calls. It keeps one
// world per distinct source text: the checked program, its call graph
// and MOD/REF summaries, and the artifacts of every analysis run over
// it — each procedure's jump functions and substitution decisions,
// keyed by the procedure itself, plus whole-program results. An
// identical re-analysis reuses the world outright. A text the cache
// has not seen is derived, when it can be, from a cached text of the
// same files: units may be edited, added or removed, and only the new
// units (an edited one, an added one, or one an edit above it moved to
// other lines) are parsed and checked, alone. Every procedure outside
// their blast radius (the replaced and removed procedures and their
// transitive callers) keeps its artifacts. This is the same replace
// step compiler-daemon sessions take. Any other text is analyzed from
// scratch. Only the global propagation phase always re-runs.
//
// Results are byte-identical with and without a cache, for every
// configuration. A Cache is safe for concurrent use by any number of
// analyses and bounds its memory with LRU eviction.
type Cache struct {
	c *memo.Cache
}

// CacheOptions configures NewCache.
type CacheOptions struct {
	// MaxBytes bounds the cache's estimated memory footprint; least
	// recently used entries are evicted past it. <= 0 selects a 64 MiB
	// default.
	MaxBytes int64
}

// CacheStats is a point-in-time snapshot of a Cache's counters. Hits
// and Misses count memoized lookups at every granularity (front-end
// builds, parsed units, whole-configuration phase results,
// per-procedure artifacts); Derived counts texts the cache had not
// seen that were derived from a cached one by the replace step;
// Evictions counts entries dropped to stay within MaxBytes.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Derived   uint64 `json:"derived"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// NewCache returns an empty analysis cache.
func NewCache(o CacheOptions) *Cache {
	return &Cache{c: memo.New(memo.Options{MaxBytes: o.MaxBytes})}
}

// Stats returns current counters.
func (c *Cache) Stats() CacheStats {
	s := c.c.StatsSnapshot()
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses, Derived: s.Derived, Evictions: s.Evictions,
		Entries: s.Entries, Bytes: s.Bytes, MaxBytes: s.MaxBytes,
	}
}

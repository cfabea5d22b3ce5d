package memo

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultMaxBytes is the byte budget a zero Options selects.
const DefaultMaxBytes = 64 << 20

// Options configures a Cache.
type Options struct {
	// MaxBytes bounds the cache's estimated memory footprint; least
	// recently used entries are evicted past it. <= 0 selects
	// DefaultMaxBytes.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
// Hits and Misses count every memoized lookup at any granularity
// (worlds, units — a derived world counts each unit it keeps from its
// donor as a hit and each new one as a miss —, whole-config jump
// functions and substitutions, and per-procedure artifacts); Derived
// counts world misses served by the replace step from a cached world;
// Evictions counts LRU entries dropped to stay within the byte budget.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Derived   uint64 `json:"derived"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// Cache is a content-addressed store for the incremental-analysis
// artifacts of package memo. It is safe for concurrent use; concurrent
// requests for the same source single-flight the expensive front-end
// build.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // *entry values; front = most recently used
	worlds   map[string]*entry
	chunks   map[string]*entry
	building map[string]*worldCall
	// shapes indexes the cached worlds without diagnostics by shape:
	// the donors a world miss may derive from.
	shapes map[string][]*world

	evictions uint64

	hits, misses, derived atomic.Uint64
}

type entry struct {
	key   string
	bytes int64
	world *world
	chunk *chunkEntry
	elem  *list.Element
}

// worldCall single-flights one world construction.
type worldCall struct {
	done chan struct{}
	w    *world // nil when the source is ineligible for caching
}

// New returns an empty cache with the given byte budget.
func New(o Options) *Cache {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: o.MaxBytes,
		lru:      list.New(),
		worlds:   make(map[string]*entry),
		chunks:   make(map[string]*entry),
		building: make(map[string]*worldCall),
		shapes:   make(map[string][]*world),
	}
}

// StatsSnapshot returns current counters.
func (c *Cache) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Derived: c.derived.Load(),
		Evictions: c.evictions,
		Entries:   c.lru.Len(), Bytes: c.bytes, MaxBytes: c.maxBytes,
	}
}

// count adds to the hit and miss counters; a nil cache counts nothing.
func (c *Cache) count(hits, misses uint64) {
	if c == nil {
		return
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
}

// touch moves an entry to the LRU front. Callers hold c.mu.
func (c *Cache) touch(e *entry) { c.lru.MoveToFront(e.elem) }

// insert registers a new entry and evicts past the byte budget.
// Callers hold c.mu.
func (c *Cache) insert(e *entry, into map[string]*entry) {
	e.elem = c.lru.PushFront(e)
	into[e.key] = e
	c.bytes += e.bytes
	c.evict(e)
}

// addBytes charges delta more bytes to a live entry (artifact growth).
// Callers hold c.mu.
func (c *Cache) addBytes(e *entry, delta int64) {
	e.bytes += delta
	c.bytes += delta
	c.evict(e)
}

// evict drops least-recently-used entries until the budget is met,
// never evicting keep (the entry being inserted or grown — evicting it
// would immediately orphan its bytes accounting).
func (c *Cache) evict(keep *entry) {
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		if e == keep {
			// Only the protected entry remains (it alone exceeds the
			// budget); keep it — a cache that cannot hold one program
			// would degrade to pure overhead.
			if el.Prev() == nil {
				return
			}
			// Protected entry is at the back but not alone: rotate it
			// out of eviction's way.
			c.lru.MoveToFront(el)
			continue
		}
		c.lru.Remove(el)
		c.bytes -= e.bytes
		c.evictions++
		if w := e.world; w != nil {
			w.evicted = true
			delete(c.worlds, e.key)
			if i := slices.Index(c.shapes[w.shape], w); i >= 0 {
				c.shapes[w.shape] = slices.Delete(c.shapes[w.shape], i, i+1)
				if len(c.shapes[w.shape]) == 0 {
					delete(c.shapes, w.shape)
				}
			}
		}
		if e.chunk != nil {
			delete(c.chunks, e.key)
		}
	}
}

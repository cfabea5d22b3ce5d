package memo

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/modref"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// File is one input source file.
type File struct {
	Name string
	Src  string
}

// world is everything the front end derives from one exact source text:
// the checked program with its call graph and MOD summaries, warning
// diagnostics to replay, the unit split it was built from, and the
// artifact store of every analysis run over it. A world is immutable
// once built, so concurrent analyses may share one freely; only its
// store mutates, under the store's lock.
type world struct {
	key string
	Front
	diags []source.Diagnostic // warnings only; errors preclude a world

	// chunks is the unit split of the sources, aligned with File.Units;
	// shape names the files in order. A miss with the same shape may
	// derive its world from this one.
	chunks []Chunk
	shape  string

	arts *Store

	evicted bool // under Cache.mu
}

// chunkEntry is one parsed program unit, shared by every cold world
// build whose source contains the identical chunk text at the identical
// line.
type chunkEntry struct {
	key   string
	file  *ast.File // exactly one unit
	diags []source.Diagnostic
}

func (ce *chunkEntry) unit() *ast.Unit { return ce.file.Units[0] }

// lookupWorld returns the front-end world for the given sources,
// building and caching it on a miss. hit reports whether an
// already-built world was reused. ok is false when the sources are
// ineligible for incremental analysis (oversized, unsplittable, or
// erroneous) — the caller must fall back to the plain uncached
// pipeline, which reproduces any diagnostics exactly.
func (c *Cache) lookupWorld(files []File) (w *world, hit, ok bool) {
	if len(files) == 0 {
		return nil, false, false
	}
	total := 0
	keyParts := make([]string, 0, 2*len(files))
	for _, f := range files {
		total += len(f.Src)
		keyParts = append(keyParts, f.Name, f.Src)
	}
	if total > parser.MaxSourceBytes {
		return nil, false, false // the uncached parser rejects this with a diagnostic
	}
	key := hashStrings(keyParts...)

	c.mu.Lock()
	for {
		if e := c.worlds[key]; e != nil {
			c.hits.Add(1)
			c.touch(e)
			c.mu.Unlock()
			return e.world, true, true
		}
		call := c.building[key]
		if call == nil {
			break
		}
		// Another goroutine is building this world; wait for it.
		c.mu.Unlock()
		<-call.done
		if call.w == nil {
			return nil, false, false
		}
		c.mu.Lock()
		// The finished world is normally in the map now: loop to take
		// the hit path. It may also have been evicted already; then use
		// it without caching it again.
		if c.worlds[key] == nil {
			c.mu.Unlock()
			return call.w, true, true
		}
	}
	c.misses.Add(1)
	call := &worldCall{done: make(chan struct{})}
	c.building[key] = call
	c.mu.Unlock()

	// Build outside the lock; chunk lookups re-acquire it briefly.
	// On any exit — including a panic from an injected front-end fault —
	// release the single-flight slot so waiters never hang.
	var carried int64
	built := false
	defer func() {
		c.mu.Lock()
		delete(c.building, key)
		if built {
			call.w = w
			c.insert(&entry{key: key, bytes: worldBytes(total) + carried, world: w}, c.worlds)
			if len(w.diags) == 0 {
				c.shapes[w.shape] = append(c.shapes[w.shape], w)
			}
		}
		c.mu.Unlock()
		close(call.done)
	}()

	var chunks []Chunk
	var shape strings.Builder
	for _, f := range files {
		fc, ok := splitUnits(f.Name, f.Src)
		if !ok {
			return nil, false, false
		}
		chunks = append(chunks, fc...)
		fmt.Fprintf(&shape, "%q;", f.Name)
	}
	if w, carried = c.deriveWorld(key, shape.String(), chunks); w == nil {
		w = c.buildWorld(key, shape.String(), chunks)
	}
	if w == nil {
		return nil, false, false
	}
	built = true
	return w, false, true
}

func worldBytes(srcLen int) int64  { return int64(srcLen)*12 + 8192 }
func chunkBytes(textLen int) int64 { return int64(textLen)*6 + 1024 }

// maxDonors bounds how many cached worlds of one shape a miss compares
// itself with, newest first: an edit stream finds its predecessor
// first, and a long stream must not make every lookup slower.
const maxDonors = 8

// deriveWorld builds the world for chunks through the replace step from
// the cached world of the same shape (the same files) that needs the
// fewest new units (among the maxDonors newest). A donor qualifies when
// neither it nor the new units carry a diagnostic and at least one of
// its units is kept. The new world keeps every per-procedure artifact of
// the donor outside the blast radius; carried is their estimated size.
// nil means no donor qualifies.
func (c *Cache) deriveWorld(key, shape string, chunks []Chunk) (w *world, carried int64) {
	var donor *world
	var units []Unit
	best, kept := 0, 0
	c.mu.Lock()
	ws := c.shapes[shape]
	for i := len(ws) - 1; i >= 0 && i >= len(ws)-maxDonors && (donor == nil || best > 2); i-- {
		us, k := Plan(ws[i].chunks, chunks)
		// n counts the new units plus the donor units dropped.
		if n := len(chunks) + len(ws[i].chunks) - 2*k; k > 0 && (donor == nil || n < best) {
			donor, units, best, kept = ws[i], us, n, k
		}
	}
	c.mu.Unlock()
	if donor == nil {
		return nil, 0
	}
	f, blast, ok := Replace(donor.Front, units)
	if !ok {
		return nil, 0
	}
	c.derived.Add(1)
	c.count(uint64(kept), uint64(len(chunks)-kept))
	w = &world{key: key, Front: f, chunks: chunks, shape: shape}
	w.arts, carried = donor.arts.Derive(blast)
	return w, carried
}

// Plan aligns the unit split of an edited program, chunks, with the
// split of the program it derives from, donor, and returns the edited
// program's units for Replace. A unit is kept when the donor has a unit
// of identical text at the identical start line of the same file; one
// merge over start lines per file finds them, and since start lines
// increase within a file, kept units keep the donor's order. Every
// other unit is new, including one that only moved because an edit
// above it changed the file's line count: it is parsed again at its new
// line. kept counts the units kept.
func Plan(donor, chunks []Chunk) (units []Unit, kept int) {
	units = make([]Unit, 0, len(chunks))
	for i, j := 0, 0; j < len(chunks); {
		di, dj := i, j
		for di < len(donor) && donor[di].File == chunks[j].File {
			di++
		}
		for dj < len(chunks) && chunks[dj].File == chunks[j].File {
			dj++
		}
		for _, ch := range chunks[j:dj] {
			for i < di && donor[i].StartLine < ch.StartLine {
				i++
			}
			if i < di && donor[i] == ch {
				units = append(units, Unit{Keep: i})
				kept++
				i++
			} else {
				units = append(units, Unit{Keep: -1, Chunk: ch})
			}
		}
		i, j = di, dj
	}
	return units, kept
}

// buildWorld runs the front end over content-addressed chunks. Any
// irregularity — a chunk that does not parse to exactly one clean unit,
// a semantic error — returns nil, and the caller falls back to the
// uncached pipeline. Mis-splitting can therefore cost time, never
// correctness.
func (c *Cache) buildWorld(key, shape string, chunks []Chunk) *world {
	merged := &ast.File{}
	var diags source.ErrorList
	for _, ch := range chunks {
		ce := c.parseChunk(ch)
		if ce == nil {
			return nil
		}
		if merged.Source == nil {
			merged.Source = ce.file.Source
		}
		merged.Units = append(merged.Units, ce.unit())
		diags.Diags = append(diags.Diags, ce.diags...)
	}
	if len(merged.Units) == 0 {
		return nil
	}
	prog, err := sem.AnalyzeParallelCtx(nil, merged, &diags, 0)
	if err != nil || diags.Err() != nil {
		return nil // semantic errors: the uncached path reproduces them
	}
	g := callgraph.Build(prog)
	return &world{
		key:    key,
		Front:  Front{Prog: prog, Graph: g, Mod: modref.Compute(g)},
		diags:  diags.Diags,
		chunks: chunks,
		shape:  shape,
		arts:   NewStore(),
	}
}

// parseChunk parses one unit chunk, memoized on (file, start line,
// text). The chunk text is padded with newlines so every token keeps
// its original line and column; byte offsets shift, but nothing
// user-visible renders them. A chunk must parse to exactly one unit
// with no errors to be usable.
func (c *Cache) parseChunk(ch Chunk) *chunkEntry {
	key := hashStrings(ch.File, fmt.Sprint(ch.StartLine), ch.Text)
	c.mu.Lock()
	if e := c.chunks[key]; e != nil {
		c.hits.Add(1)
		c.touch(e)
		c.mu.Unlock()
		return e.chunk
	}
	c.misses.Add(1)
	c.mu.Unlock()

	padded := strings.Repeat("\n", ch.StartLine-1) + ch.Text
	var diags source.ErrorList
	f := parser.ParseSource(ch.File, padded, &diags)
	if diags.Err() != nil || len(f.Units) != 1 {
		return nil
	}
	ce := &chunkEntry{key: key, file: f, diags: diags.Diags}
	c.mu.Lock()
	if e := c.chunks[key]; e != nil {
		// A concurrent world build parsed the same chunk first; share its
		// AST.
		c.touch(e)
		c.mu.Unlock()
		return e.chunk
	}
	c.insert(&entry{key: key, bytes: chunkBytes(len(ch.Text)), chunk: ce}, c.chunks)
	c.mu.Unlock()
	return ce
}

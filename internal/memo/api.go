package memo

import (
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/sem"
	"repro/internal/source"
)

// World is the exported handle to a cached front-end build: the parsed
// and checked program plus the hooks that let the core driver reuse
// its per-procedure and whole-program artifacts. Handles are cheap;
// worlds are shared.
type World struct {
	c *Cache
	w *world
}

// Lookup returns the world for the given sources, building and caching
// it on a miss. hit reports whether an already-built world was reused
// (as opposed to built by this call). ok is false when the sources are
// ineligible for incremental analysis (oversized, unsplittable, or
// erroneous) and the caller must use the plain uncached pipeline, which
// reproduces any diagnostics exactly.
func (c *Cache) Lookup(files []File) (w World, hit, ok bool) {
	ww, hit, ok := c.lookupWorld(files)
	if !ok {
		return World{}, false, false
	}
	return World{c: c, w: ww}, hit, true
}

// File returns the merged AST (units in source order).
func (w World) File() *ast.File { return w.w.Prog.File }

// Prog returns the checked program.
func (w World) Prog() *sem.Program { return w.w.Prog }

// Diags returns the front end's warning diagnostics, to be replayed
// into the caller's diagnostic list (worlds never carry errors).
func (w World) Diags() []source.Diagnostic { return w.w.diags }

// Hooks returns the driver-side memoization interface for one analysis
// of this world.
func (w World) Hooks() core.MemoHooks {
	return &Hooks{st: w.w.arts, f: w.w.Front, c: w.c, w: w.w}
}

// Procs calls visit with every procedure the world's artifacts refer
// to (see Store.Procs).
func (w World) Procs(visit func(where string, p *sem.Procedure)) { w.w.arts.Procs(visit) }

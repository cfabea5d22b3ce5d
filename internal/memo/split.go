// Package memo implements incremental analysis: a cache of analyzed
// programs keyed by their exact source text, and the replace step by
// which both the cache and compiler-daemon sessions reuse an analyzed
// program after an edit.
//
// The jump-function framework is deliberately factored into
// per-procedure pieces: a procedure's jump functions are built from its
// own body and its callees' summaries, and only the propagation phase is
// global (paper §4.1). An edit to one unit therefore invalidates only
// that unit's procedure and its transitive callers, the blast radius.
// memo exploits exactly that factoring. Source text is split at
// program-unit boundaries; a text the cache has not seen is derived,
// through Replace, from a cached one of the same files whose units it
// mostly shares, and keeps every per-procedure artifact outside the
// blast radius. Artifacts are keyed by the procedures themselves (Store),
// which a derived program shares with its donor. The cheap global
// propagation phase always re-runs.
//
// The cache is sound by construction, not by hope: a derivation succeeds
// only when each replaced unit keeps its interface and its effects on the
// COMMON layout, added and removed units leave the layout as it was
// (sem.Program.Derive), every unit an edit moved is parsed again, and no
// kept unit calls a removed one; any other text is analyzed from
// scratch. Cached and uncached results are byte-identical.
package memo

import "strings"

// Chunk is one program unit's contiguous source slice: the unit's
// header through any comment or blank lines before the next header.
// Concatenating a split's chunk texts in order reproduces the input
// exactly.
type Chunk struct {
	File      string
	StartLine int // 1-based line of the chunk's first line
	Text      string
}

// Split splits source text at program-unit boundaries, the same split
// the cache aligns edited texts by and sessions apply per-unit deltas
// against. ok is false when the text has no recognizable unit header.
func Split(file, src string) ([]Chunk, bool) { return splitUnits(file, src) }

// splitUnits splits F77s source text at program-unit boundaries. A new
// unit begins at each non-comment line whose first token is PROGRAM,
// SUBROUTINE, or [type] FUNCTION — these are reserved keywords in F77s,
// so no statement inside a unit body can start with them. Comment and
// blank lines between units attach to the preceding chunk (the lexer
// discards them either way, so attribution cannot change the parse).
//
// ok is false when the text has no recognizable unit header; callers
// fall back to whole-file analysis. A chunk that fails to parse to
// exactly one clean unit is rejected later, in the world builder, so a
// mis-split can cost performance but never correctness.
func splitUnits(file, src string) (chunks []Chunk, ok bool) {
	var starts, lines []int // byte offsets and line numbers of unit headers
	line := 1
	for off := 0; off < len(src); line++ {
		end := strings.IndexByte(src[off:], '\n')
		if end < 0 {
			end = len(src)
		} else {
			end += off + 1
		}
		if isUnitHeader(src[off:end]) {
			starts = append(starts, off)
			lines = append(lines, line)
		}
		off = end
	}
	if len(starts) == 0 {
		return nil, false
	}
	// Leading text before the first header (comments/blanks, or garbage
	// the parser will reject) joins the first chunk.
	starts[0], lines[0] = 0, 1
	for i, s := range starts {
		e := len(src)
		if i+1 < len(starts) {
			e = starts[i+1]
		}
		chunks = append(chunks, Chunk{File: file, StartLine: lines[i], Text: src[s:e]})
	}
	return chunks, true
}

// isUnitHeader reports whether a raw source line opens a new program
// unit. It mirrors the lexer's comment rules (classic C/* comments in
// column 1, ! anywhere) so that a commented-out header never splits.
func isUnitHeader(line string) bool {
	// Classic comment introducer in column 1: C or * followed by
	// whitespace/EOL — with the lexer's "C = 0" / "C(I) = 1" assignment
	// exception, which cannot begin a unit header anyway.
	if len(line) > 0 {
		c := line[0]
		if c == '*' {
			return false
		}
		if c == 'C' || c == 'c' {
			if len(line) == 1 {
				return false
			}
			switch line[1] {
			case ' ', '\t', '\r', '\n':
				// Could still be "C = …", but that is not a header either.
				return false
			}
		}
	}
	rest, word := firstWord(line)
	switch word {
	case "PROGRAM", "SUBROUTINE", "FUNCTION":
		return true
	case "INTEGER", "REAL", "LOGICAL", "DOUBLE":
		// Typed function headers: "INTEGER FUNCTION F(…)". "DOUBLE" must
		// be followed by "PRECISION FUNCTION".
		if word == "DOUBLE" {
			var next string
			rest, next = firstWord(rest)
			if next != "PRECISION" {
				return false
			}
		}
		_, next := firstWord(rest)
		return next == "FUNCTION"
	}
	return false
}

// firstWord scans one identifier-like word (uppercased) off the front of
// a line, skipping leading blanks and an optional statement label; it
// returns the remainder after the word. A line whose first glyph is not
// a letter yields "".
func firstWord(line string) (rest, word string) {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	start := i
	for i < len(line) && isWordByte(line[i]) {
		i++
	}
	if i == start {
		return line, ""
	}
	return line[i:], strings.ToUpper(line[start:i])
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

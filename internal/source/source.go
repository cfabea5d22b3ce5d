// Package source models F77s source text: files, positions, and
// diagnostics. Every later phase reports errors in terms of these
// positions so that a user can trace an analysis result back to a line of
// the original program.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// File is one F77s source file, or a part of one that starts at a
// later line. Line numbers are 1-based, columns are 1-based byte offsets
// within the line.
type File struct {
	Name    string
	Content string

	base        int   // the line number of Content's first line, minus 1
	lineOffsets []int // byte offset of the start of each line
}

// NewFile builds a File and indexes its line starts.
func NewFile(name, content string) *File { return NewFileAt(name, content, 1) }

// NewFileAt builds a File for content that starts at the given 1-based
// line of the file called name, such as one program unit parsed alone:
// positions carry the whole file's line numbers and columns, and their
// offsets count from the start of content.
func NewFileAt(name, content string, line int) *File {
	f := &File{Name: name, Content: content, base: line - 1}
	f.lineOffsets = append(f.lineOffsets, 0)
	for i := 0; i < len(content); i++ {
		if content[i] == '\n' {
			f.lineOffsets = append(f.lineOffsets, i+1)
		}
	}
	return f
}

// NumLines reports the number of the file's last line: the number of
// lines, counted from line 1 of the whole file. A trailing newline does
// not start a new (empty) line for counting purposes.
func (f *File) NumLines() int {
	n := len(f.lineOffsets)
	if n > 0 && f.lineOffsets[n-1] == len(f.Content) && len(f.Content) > 0 {
		n--
	}
	return f.base + n
}

// Pos converts a byte offset into a Position.
func (f *File) Pos(offset int) Position {
	if offset < 0 {
		offset = 0
	}
	if offset > len(f.Content) {
		offset = len(f.Content)
	}
	// Find the last line start <= offset.
	i := sort.Search(len(f.lineOffsets), func(i int) bool {
		return f.lineOffsets[i] > offset
	}) - 1
	if i < 0 {
		i = 0
	}
	return Position{File: f.Name, Line: f.base + i + 1, Col: offset - f.lineOffsets[i] + 1, Offset: offset}
}

// Cursor converts offsets to positions for a reader that moves forward
// through the file, as the parser does: it remembers the line of the
// last offset and steps forward from there, and falls back to Pos's
// binary search for an offset before that line. Its positions equal
// Pos's for every offset in any order.
type Cursor struct {
	f *File
	// line indexes lineOffsets: the line of the furthest offset seen.
	line int
}

// Cursor returns a cursor at the start of the file.
func (f *File) Cursor() Cursor { return Cursor{f: f} }

// Pos converts a byte offset into a Position, as File.Pos does.
func (c *Cursor) Pos(offset int) Position {
	f, ls := c.f, c.f.lineOffsets
	offset = min(max(offset, 0), len(f.Content))
	if offset < ls[c.line] {
		return f.Pos(offset)
	}
	for c.line+1 < len(ls) && ls[c.line+1] <= offset {
		c.line++
	}
	return Position{File: f.Name, Line: f.base + c.line + 1, Col: offset - ls[c.line] + 1, Offset: offset}
}

// Line returns the text of the 1-based line n, without its newline;
// empty for a line before the file's first.
func (f *File) Line(n int) string {
	n -= f.base
	if n < 1 || n > len(f.lineOffsets) {
		return ""
	}
	start := f.lineOffsets[n-1]
	end := len(f.Content)
	if n < len(f.lineOffsets) {
		end = f.lineOffsets[n] - 1 // drop the newline
	}
	return strings.TrimRight(f.Content[start:end], "\r")
}

// Position identifies a point in a source file.
type Position struct {
	File   string
	Line   int // 1-based
	Col    int // 1-based
	Offset int // byte offset in the File's Content
}

// IsValid reports whether the position carries real location data.
func (p Position) IsValid() bool { return p.Line > 0 }

func (p Position) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Severity classifies a diagnostic.
type Severity int

const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Diagnostic is a single compiler message tied to a position.
type Diagnostic struct {
	Pos      Position
	Severity Severity
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Message)
}

// ErrorList collects diagnostics; it satisfies error when non-empty.
type ErrorList struct {
	Diags []Diagnostic
}

// Errorf appends an error diagnostic.
func (l *ErrorList) Errorf(pos Position, format string, args ...interface{}) {
	l.Diags = append(l.Diags, Diagnostic{Pos: pos, Severity: Error, Message: fmt.Sprintf(format, args...)})
}

// Warnf appends a warning diagnostic.
func (l *ErrorList) Warnf(pos Position, format string, args ...interface{}) {
	l.Diags = append(l.Diags, Diagnostic{Pos: pos, Severity: Warning, Message: fmt.Sprintf(format, args...)})
}

// HasErrors reports whether any error-severity diagnostic was recorded.
func (l *ErrorList) HasErrors() bool {
	for _, d := range l.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Err returns the list as an error, or nil if it holds no errors.
func (l *ErrorList) Err() error {
	if l == nil || !l.HasErrors() {
		return nil
	}
	return l
}

// Error formats up to the first few diagnostics.
func (l *ErrorList) Error() string {
	var b strings.Builder
	const max = 10
	for i, d := range l.Diags {
		if i == max {
			fmt.Fprintf(&b, "... and %d more", len(l.Diags)-max)
			break
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.String())
	}
	if len(l.Diags) == 0 {
		return "no diagnostics"
	}
	return b.String()
}

// Sort orders diagnostics by file, line, column.
func (l *ErrorList) Sort() {
	sort.SliceStable(l.Diags, func(i, j int) bool {
		a, b := l.Diags[i].Pos, l.Diags[j].Pos
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}

// CountNonCommentLines reports the number of lines that are neither blank
// nor comments. This is the "line count" metric of Table 1 in the paper
// ("line counts exclude comments and blank lines").
func CountNonCommentLines(content string) int {
	n := 0
	for _, line := range strings.Split(content, "\n") {
		t := strings.TrimSpace(line)
		if t == "" {
			continue
		}
		if strings.HasPrefix(t, "!") {
			continue
		}
		// Classic F77 comment: 'C' or '*' in column 1.
		if line != "" && (line[0] == 'C' || line[0] == 'c' || line[0] == '*') {
			// Heuristic: treat as comment only if followed by space or end,
			// to avoid eating statements in free form (we never start a
			// statement in column 1 with a bare identifier 'C...').
			if len(t) == 1 || line[1] == ' ' || line[1] == '\t' {
				continue
			}
		}
		n++
	}
	return n
}

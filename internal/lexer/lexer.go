package lexer

import (
	"strings"

	"repro/internal/guard"
	"repro/internal/source"
)

// Lexer scans an F77s file into tokens.
type Lexer struct {
	file  *source.File
	src   string
	pos   int  // current byte offset
	atBOL bool // at beginning of a (logical) line: labels only valid here
	diags *source.ErrorList
}

// New returns a Lexer over the file, reporting problems to diags.
func New(file *source.File, diags *source.ErrorList) *Lexer {
	return &Lexer{file: file, src: file.Content, atBOL: true, diags: diags}
}

// Tokenize scans the entire file. The result always ends with an EOF
// token. Comment lines vanish; every non-empty statement line produces a
// trailing NEWLINE token.
func Tokenize(file *source.File, diags *source.ErrorList) []Token {
	defer guard.Repanic("lex")
	guard.InjectPanic("lex")
	lx := New(file, diags)
	// F77s source measures 2.4-2.9 bytes per token (the benchmark
	// suite and generated programs), so one token per 2 bytes sizes
	// the slice once without regrowing it mid-scan. Leading blank lines
	// produce no tokens and are not counted: a unit parsed alone is
	// padded with them to its line in the whole program.
	toks := make([]Token, 0, len(strings.TrimLeft(lx.src, "\n"))/2+16)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks
		}
	}
}

func (l *Lexer) errorf(off int, format string, args ...interface{}) {
	if l.diags != nil {
		l.diags.Errorf(l.file.Pos(off), format, args...)
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(k int) byte {
	if l.pos+k >= len(l.src) {
		return 0
	}
	return l.src[l.pos+k]
}

// skipBlanksAndComments advances over spaces, tabs, carriage returns, and
// whole comment lines. It stops at a newline (which is significant), at a
// token, or at EOF. Blank lines and comment lines are swallowed entirely,
// including their newlines, so they produce no NEWLINE tokens.
func (l *Lexer) skipBlanksAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '!':
			// Comment to end of line; the newline itself is handled by the
			// caller (it is significant only if the line had tokens).
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case (c == 'C' || c == 'c' || c == '*') && l.atBOL && l.atLineStartColumn() && l.isCommentIntroducer():
			// Classic comment: C or * in column 1 of a line, followed by
			// whitespace or end of line. The whitespace requirement keeps
			// free-form statements like `CALL F(X)` in column 1 working.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\n':
			if l.atBOL {
				// Blank (or comment-only) line: swallow silently.
				l.pos++
				continue
			}
			return // significant newline
		default:
			return
		}
	}
}

// atLineStartColumn reports whether pos is at column 1 of its line.
func (l *Lexer) atLineStartColumn() bool {
	return l.pos == 0 || l.src[l.pos-1] == '\n'
}

// isCommentIntroducer reports whether the character at pos begins a
// classic comment: followed by whitespace or end of line, and — for the
// letter C, which is also a perfectly good variable name — not the start
// of an assignment or array store ("C = 0", "C(I) = 1").
func (l *Lexer) isCommentIntroducer() bool {
	c := l.peekAt(1)
	if !(c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == 0) {
		return false
	}
	if l.src[l.pos] == '*' {
		return true // '*' can never start a statement in F77s
	}
	// Skip whitespace after the 'C' and look at the next glyph.
	for k := 1; l.pos+k < len(l.src); k++ {
		switch l.src[l.pos+k] {
		case ' ', '\t', '\r':
			continue
		case '=', '(':
			return false // an assignment to the variable C
		default:
			return true
		}
	}
	return true
}

// Next returns the next token.
func (l *Lexer) Next() Token {
	l.skipBlanksAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Offset: l.pos}
	}
	start := l.pos
	c := l.src[l.pos]

	if c == '\n' {
		l.pos++
		l.atBOL = true
		return Token{Kind: NEWLINE, Offset: start}
	}

	wasBOL := l.atBOL
	l.atBOL = false

	switch {
	case isDigit(c):
		return l.scanNumber(start, wasBOL)
	case isLetter(c):
		return l.scanWord(start)
	}

	switch c {
	case '.':
		// Either a .OP. spelling or a real literal like ".5".
		if isDigit(l.peekAt(1)) {
			return l.scanNumber(start, false)
		}
		return l.scanDotOperator(start)
	case '\'':
		return l.scanString(start)
	case '+':
		l.pos++
		return Token{Kind: PLUS, Text: "+", Offset: start}
	case '-':
		l.pos++
		return Token{Kind: MINUS, Text: "-", Offset: start}
	case '*':
		l.pos++
		if l.peek() == '*' {
			l.pos++
			return Token{Kind: POW, Text: "**", Offset: start}
		}
		return Token{Kind: STAR, Text: "*", Offset: start}
	case '/':
		l.pos++
		if l.peek() == '=' {
			l.pos++
			return Token{Kind: NE, Text: "/=", Offset: start}
		}
		return Token{Kind: SLASH, Text: "/", Offset: start}
	case '(':
		l.pos++
		return Token{Kind: LPAREN, Text: "(", Offset: start}
	case ')':
		l.pos++
		return Token{Kind: RPAREN, Text: ")", Offset: start}
	case ',':
		l.pos++
		return Token{Kind: COMMA, Text: ",", Offset: start}
	case ':':
		l.pos++
		return Token{Kind: COLON, Text: ":", Offset: start}
	case '=':
		l.pos++
		if l.peek() == '=' {
			l.pos++
			return Token{Kind: EQ, Text: "==", Offset: start}
		}
		return Token{Kind: ASSIGN, Text: "=", Offset: start}
	case '<':
		l.pos++
		if l.peek() == '=' {
			l.pos++
			return Token{Kind: LE, Text: "<=", Offset: start}
		}
		return Token{Kind: LT, Text: "<", Offset: start}
	case '>':
		l.pos++
		if l.peek() == '=' {
			l.pos++
			return Token{Kind: GE, Text: ">=", Offset: start}
		}
		return Token{Kind: GT, Text: ">", Offset: start}
	}

	l.pos++
	l.errorf(start, "unexpected character %q", string(c))
	return Token{Kind: ILLEGAL, Text: string(c), Offset: start}
}

func (l *Lexer) scanNumber(start int, wasBOL bool) Token {
	isReal := false
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	// A '.' makes it real — unless it begins a .OP. spelling
	// (e.g. "1.EQ.2"): look ahead for digits or exponent after the dot.
	if l.peek() == '.' {
		next := l.peekAt(1)
		if isDigit(next) || next == 0 || !isLetter(next) || isExponentStart(l.src[l.pos+1:]) {
			isReal = true
			l.pos++ // consume '.'
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
	}
	// Exponent part.
	if c := l.peek(); c == 'e' || c == 'E' || c == 'd' || c == 'D' {
		save := l.pos
		l.pos++
		if l.peek() == '+' || l.peek() == '-' {
			l.pos++
		}
		if isDigit(l.peek()) {
			isReal = true
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			l.pos = save // not an exponent (e.g. "10 ELEMENTS")
		}
	}
	text := l.src[start:l.pos]
	if isReal {
		return Token{Kind: REALLIT, Text: strings.ToUpper(text), Offset: start}
	}
	if wasBOL {
		return Token{Kind: LABEL, Text: text, Offset: start}
	}
	return Token{Kind: INTLIT, Text: text, Offset: start}
}

// isExponentStart reports whether s begins like the exponent of a real
// literal after a dot, e.g. "E5" in "1.E5".
func isExponentStart(s string) bool {
	if len(s) == 0 {
		return false
	}
	c := s[0]
	if c != 'e' && c != 'E' && c != 'd' && c != 'D' {
		return false
	}
	i := 1
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	return i < len(s) && isDigit(s[i])
}

func (l *Lexer) scanWord(start int) Token {
	for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
		l.pos++
	}
	text := strings.ToUpper(l.src[start:l.pos])
	// Multi-word spellings: "ELSE IF", "END IF", "END DO", "GO TO",
	// "DOUBLE PRECISION" are normalized by the parser; here we only fold
	// single words.
	if k, ok := keywords[text]; ok {
		return Token{Kind: k, Text: text, Offset: start}
	}
	return Token{Kind: IDENT, Text: text, Offset: start}
}

func (l *Lexer) scanDotOperator(start int) Token {
	l.pos++ // consume '.'
	wordStart := l.pos
	for l.pos < len(l.src) && isLetter(l.src[l.pos]) {
		l.pos++
	}
	word := strings.ToUpper(l.src[wordStart:l.pos])
	if l.peek() != '.' {
		l.errorf(start, "malformed .%s operator (missing closing dot)", word)
		return Token{Kind: ILLEGAL, Text: "." + word, Offset: start}
	}
	l.pos++ // consume trailing '.'
	k, ok := dotOperators[word]
	if !ok {
		l.errorf(start, "unknown operator .%s.", word)
		return Token{Kind: ILLEGAL, Text: "." + word + ".", Offset: start}
	}
	if k == LOGLIT {
		return Token{Kind: LOGLIT, Text: "." + word + ".", Offset: start}
	}
	return Token{Kind: k, Text: "." + word + ".", Offset: start}
}

func (l *Lexer) scanString(start int) Token {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\n' {
			break
		}
		if c == '\'' {
			if l.peekAt(1) == '\'' { // doubled quote escapes
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: STRING, Text: b.String(), Offset: start}
		}
		b.WriteByte(c)
		l.pos++
	}
	l.errorf(start, "unterminated string literal")
	return Token{Kind: ILLEGAL, Text: b.String(), Offset: start}
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

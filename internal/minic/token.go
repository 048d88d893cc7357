// Package minic implements the miniature C-like programming language that
// user programs submitted to the portal are written in. The paper's portal
// compiles and runs C, C++ and Java sources on the cluster; since the
// reproduction must be self-contained and offline, minic plays the role of
// all three (package toolchain exposes per-language "profiles" over it), with
// a real pipeline: lexer → recursive-descent parser → semantic checks →
// bytecode compiler → stack VM.
//
// The language is small but concurrent: programs can spawn threads, guard
// shared globals with mutexes and semaphores (the labs' subject matter),
// and, when launched as a multi-rank cluster job, exchange messages through
// MPI-style builtins (rank, size, send, recv, barrier, reduce). A rank's
// threads take turns on one run token, handed on at seeded points, so a race
// a lab teaches replays from the seed; ranks run in parallel.
package minic

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	TokEOF Kind = iota
	TokIdent
	TokInt
	TokFloat
	TokString
	TokKeyword
	TokOp    // operators and punctuation
	TokError // lexical error; Lit holds the message
)

// Token is one lexical unit.
type Token struct {
	Kind Kind
	Lit  string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "EOF"
	case TokString:
		return fmt.Sprintf("%q", t.Lit)
	default:
		return t.Lit
	}
}

var keywords = map[string]bool{
	"func": true, "var": true, "if": true, "else": true, "while": true,
	"for": true, "return": true, "break": true, "continue": true,
	"true": true, "false": true,
}

// operators, longest first so maximal munch works by probing 2 then 1 chars.
var twoCharOps = map[string]bool{
	"==": true, "!=": true, "<=": true, ">=": true, "&&": true, "||": true,
}

var oneCharOps = map[byte]bool{
	'+': true, '-': true, '*': true, '/': true, '%': true, '<': true,
	'>': true, '=': true, '!': true, '(': true, ')': true, '{': true,
	'}': true, '[': true, ']': true, ',': true, ';': true,
}

// Lexer turns source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for l.pos < len(l.src) && !(l.peek() == '*' && l.peek2() == '/') {
				l.advance()
			}
			if l.pos < len(l.src) {
				l.advance()
				l.advance()
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		lit := l.src[start:l.pos]
		if keywords[lit] {
			return Token{Kind: TokKeyword, Lit: lit, Line: line, Col: col}
		}
		return Token{Kind: TokIdent, Lit: lit, Line: line, Col: col}
	case c >= '0' && c <= '9':
		start := l.pos
		kind := TokInt
		for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			l.advance()
		}
		if l.pos < len(l.src) && l.peek() == '.' && l.peek2() >= '0' && l.peek2() <= '9' {
			kind = TokFloat
			l.advance()
			for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
				l.advance()
			}
		}
		return Token{Kind: kind, Lit: l.src[start:l.pos], Line: line, Col: col}
	case c == '"':
		return l.lexString(line, col)
	default:
		if l.pos+1 < len(l.src) {
			two := l.src[l.pos : l.pos+2]
			if twoCharOps[two] {
				l.advance()
				l.advance()
				return Token{Kind: TokOp, Lit: two, Line: line, Col: col}
			}
		}
		if oneCharOps[c] {
			l.advance()
			return Token{Kind: TokOp, Lit: string(c), Line: line, Col: col}
		}
		l.advance()
		return Token{Kind: TokError, Lit: fmt.Sprintf("unexpected character %q", c), Line: line, Col: col}
	}
}

func (l *Lexer) lexString(line, col int) Token {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{Kind: TokError, Lit: "unterminated string literal", Line: line, Col: col}
		}
		c := l.advance()
		switch c {
		case '"':
			return Token{Kind: TokString, Lit: sb.String(), Line: line, Col: col}
		case '\n':
			return Token{Kind: TokError, Lit: "newline in string literal", Line: line, Col: col}
		case '\\':
			if l.pos >= len(l.src) {
				return Token{Kind: TokError, Lit: "unterminated escape", Line: line, Col: col}
			}
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				return Token{Kind: TokError, Lit: fmt.Sprintf("unknown escape \\%c", e), Line: line, Col: col}
			}
		default:
			sb.WriteByte(c)
		}
	}
}

// Tokenize lexes the whole input, stopping at EOF or the first error token
// (which is included in the result).
func Tokenize(src string) []Token {
	l := NewLexer(src)
	var out []Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == TokEOF || t.Kind == TokError {
			return out
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

package minic

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser with one token of lookahead.
type Parser struct {
	lex    *Lexer
	tok    Token
	err    *Error // first error; parsing stops at the first diagnostic
	depth  int    // nesting levels entered (see descend)
	height int    // height of the expression parsed last (see tall)
}

// maxNesting bounds how deep expressions, unary chains, blocks and else-if
// chains may nest in all, and how tall one expression's tree may grow. The
// parser, the compiler and the printer recurse once per level, and a source
// nested a million levels deep would overflow the Go stack, which kills the
// process: no recover catches it.
const maxNesting = 1000

// descend enters one nesting level. Past maxNesting it fails the parse at
// the current token and reports false; otherwise the caller must ascend on
// its way out.
func (p *Parser) descend() bool {
	if p.depth >= maxNesting {
		p.fail("nesting deeper than %d levels", maxNesting)
		return false
	}
	p.depth++
	return true
}

func (p *Parser) ascend() { p.depth-- }

// tall records h, the height of the expression just parsed: the most nodes
// on a path from it down to a leaf. Past maxNesting it fails the parse. The
// parser builds a chain of binary operators or of indexes in a loop, so
// descend never sees the chain, but the compiler and the printer recurse
// once per node of it.
func (p *Parser) tall(h int) {
	if h > maxNesting {
		p.fail("nesting deeper than %d levels", maxNesting)
	}
	p.height = h
}

// Parse parses a full source file.
func Parse(src string) (*Program, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	prog := &Program{}
	for p.tok.Kind != TokEOF && p.err == nil {
		switch {
		case p.isKeyword("func"):
			if f := p.parseFunc(); f != nil {
				prog.Funcs = append(prog.Funcs, f)
			}
		case p.isKeyword("var"):
			if d := p.parseVarDecl(); d != nil {
				prog.Globals = append(prog.Globals, d)
			}
		default:
			p.fail("expected 'func' or 'var' at top level, got %s", p.tok)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return prog, nil
}

func (p *Parser) next() {
	p.tok = p.lex.Next()
	if p.tok.Kind == TokError && p.err == nil {
		p.err = errAt(p.tok.Line, p.tok.Col, "%s", p.tok.Lit)
	}
}

func (p *Parser) fail(format string, args ...interface{}) {
	if p.err == nil {
		p.err = errAt(p.tok.Line, p.tok.Col, format, args...)
	}
	p.tok = Token{Kind: TokEOF, Line: p.tok.Line, Col: p.tok.Col}
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Lit == kw
}

func (p *Parser) isOp(op string) bool {
	return p.tok.Kind == TokOp && p.tok.Lit == op
}

func (p *Parser) expectOp(op string) {
	if !p.isOp(op) {
		p.fail("expected %q, got %s", op, p.tok)
		return
	}
	p.next()
}

func (p *Parser) expectKeyword(kw string) {
	if !p.isKeyword(kw) {
		p.fail("expected %q, got %s", kw, p.tok)
		return
	}
	p.next()
}

func (p *Parser) expectIdent() string {
	if p.tok.Kind != TokIdent {
		p.fail("expected identifier, got %s", p.tok)
		return ""
	}
	name := p.tok.Lit
	p.next()
	return name
}

func (p *Parser) pos() position {
	return position{line: p.tok.Line, col: p.tok.Col}
}

// parseFunc parses: func name(params) { ... }
func (p *Parser) parseFunc() *FuncDecl {
	pos := p.pos()
	p.expectKeyword("func")
	name := p.expectIdent()
	p.expectOp("(")
	var params []string
	for p.err == nil && !p.isOp(")") {
		if len(params) > 0 {
			p.expectOp(",")
		}
		params = append(params, p.expectIdent())
	}
	p.expectOp(")")
	body := p.parseBlock()
	if p.err != nil {
		return nil
	}
	return &FuncDecl{position: pos, Name: name, Params: params, Body: body}
}

// parseVarDecl parses: var name = expr ;
func (p *Parser) parseVarDecl() *VarDecl {
	pos := p.pos()
	p.expectKeyword("var")
	name := p.expectIdent()
	p.expectOp("=")
	init := p.parseExpr()
	p.expectOp(";")
	if p.err != nil {
		return nil
	}
	return &VarDecl{position: pos, Name: name, Init: init}
}

func (p *Parser) parseBlock() *Block {
	pos := p.pos()
	if !p.descend() {
		return &Block{position: pos}
	}
	defer p.ascend()
	p.expectOp("{")
	b := &Block{position: pos}
	for p.err == nil && !p.isOp("}") && p.tok.Kind != TokEOF {
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.expectOp("}")
	return b
}

func (p *Parser) parseStmt() Stmt {
	switch {
	case p.isKeyword("var"):
		return p.parseVarDecl()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		return p.parseWhile()
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("return"):
		pos := p.pos()
		p.next()
		var val Expr
		if !p.isOp(";") {
			val = p.parseExpr()
		}
		p.expectOp(";")
		return &ReturnStmt{position: pos, Value: val}
	case p.isKeyword("break"):
		pos := p.pos()
		p.next()
		p.expectOp(";")
		return &BreakStmt{position: pos}
	case p.isKeyword("continue"):
		pos := p.pos()
		p.next()
		p.expectOp(";")
		return &ContinueStmt{position: pos}
	case p.isOp("{"):
		return p.parseBlock()
	default:
		s := p.parseSimpleStmt()
		p.expectOp(";")
		return s
	}
}

// parseSimpleStmt parses an assignment or expression statement, without the
// trailing semicolon (shared by for-clauses).
func (p *Parser) parseSimpleStmt() Stmt {
	pos := p.pos()
	e := p.parseExpr()
	if p.isOp("=") {
		p.next()
		switch e.(type) {
		case *Ident, *IndexExpr:
		default:
			p.fail("invalid assignment target")
			return nil
		}
		val := p.parseExpr()
		return &AssignStmt{position: pos, Target: e, Value: val}
	}
	if _, ok := e.(*CallExpr); !ok && p.err == nil {
		p.fail("expression statement must be a call")
		return nil
	}
	return &ExprStmt{position: pos, X: e}
}

func (p *Parser) parseIf() Stmt {
	pos := p.pos()
	if !p.descend() {
		return nil
	}
	defer p.ascend()
	p.expectKeyword("if")
	p.expectOp("(")
	cond := p.parseExpr()
	p.expectOp(")")
	then := p.parseBlock()
	var els Stmt
	if p.isKeyword("else") {
		p.next()
		if p.isKeyword("if") {
			els = p.parseIf()
		} else {
			els = p.parseBlock()
		}
	}
	return &IfStmt{position: pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseWhile() Stmt {
	pos := p.pos()
	p.expectKeyword("while")
	p.expectOp("(")
	cond := p.parseExpr()
	p.expectOp(")")
	body := p.parseBlock()
	return &WhileStmt{position: pos, Cond: cond, Body: body}
}

func (p *Parser) parseFor() Stmt {
	pos := p.pos()
	p.expectKeyword("for")
	p.expectOp("(")
	var init Stmt
	if !p.isOp(";") {
		if p.isKeyword("var") {
			init = p.parseVarDecl() // consumes its own ';'
		} else {
			init = p.parseSimpleStmt()
			p.expectOp(";")
		}
	} else {
		p.expectOp(";")
	}
	var cond Expr
	if !p.isOp(";") {
		cond = p.parseExpr()
	}
	p.expectOp(";")
	var post Stmt
	if !p.isOp(")") {
		post = p.parseSimpleStmt()
	}
	p.expectOp(")")
	body := p.parseBlock()
	return &ForStmt{position: pos, Init: init, Cond: cond, Post: post, Body: body}
}

// Expression parsing with precedence climbing.

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *Parser) parseExpr() Expr {
	if !p.descend() {
		return nil
	}
	defer p.ascend()
	return p.parseBinary(1)
}

func (p *Parser) parseBinary(minPrec int) Expr {
	left := p.parseUnary()
	for p.err == nil && p.tok.Kind == TokOp {
		prec, ok := binaryPrec[p.tok.Lit]
		if !ok || prec < minPrec {
			break
		}
		op := p.tok.Lit
		pos := p.pos()
		p.next()
		h := p.height
		right := p.parseBinary(prec + 1)
		left = &BinaryExpr{position: pos, Op: op, X: left, Y: right}
		p.tall(1 + max(h, p.height))
	}
	return left
}

func (p *Parser) parseUnary() Expr {
	if p.isOp("-") || p.isOp("!") {
		if !p.descend() {
			return nil
		}
		defer p.ascend()
		pos := p.pos()
		op := p.tok.Lit
		p.next()
		x := p.parseUnary()
		p.tall(1 + p.height)
		return &UnaryExpr{position: pos, Op: op, X: x}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	e := p.parsePrimary()
	for p.err == nil && p.isOp("[") {
		pos := p.pos()
		p.next()
		h := p.height
		idx := p.parseExpr()
		p.expectOp("]")
		e = &IndexExpr{position: pos, X: e, Index: idx}
		p.tall(1 + max(h, p.height))
	}
	return e
}

func (p *Parser) parsePrimary() Expr {
	pos := p.pos()
	p.height = 1
	switch {
	case p.tok.Kind == TokInt:
		v, err := strconv.ParseInt(p.tok.Lit, 10, 64)
		if err != nil {
			p.fail("bad integer literal %q: %v", p.tok.Lit, err)
			return nil
		}
		p.next()
		return &IntLit{position: pos, Value: v}
	case p.tok.Kind == TokFloat:
		v, err := strconv.ParseFloat(p.tok.Lit, 64)
		if err != nil {
			p.fail("bad float literal %q: %v", p.tok.Lit, err)
			return nil
		}
		p.next()
		return &FloatLit{position: pos, Value: v}
	case p.tok.Kind == TokString:
		v := p.tok.Lit
		p.next()
		return &StringLit{position: pos, Value: v}
	case p.isKeyword("true"), p.isKeyword("false"):
		v := p.tok.Lit == "true"
		p.next()
		return &BoolLit{position: pos, Value: v}
	case p.tok.Kind == TokIdent:
		name := p.tok.Lit
		p.next()
		if p.isOp("(") {
			p.next()
			var args []Expr
			h := 0
			for p.err == nil && !p.isOp(")") {
				if len(args) > 0 {
					p.expectOp(",")
				}
				args = append(args, p.parseExpr())
				h = max(h, p.height)
			}
			p.expectOp(")")
			p.tall(1 + h)
			return &CallExpr{position: pos, Name: name, Args: args}
		}
		return &Ident{position: pos, Name: name}
	case p.isOp("("):
		p.next()
		e := p.parseExpr()
		p.expectOp(")")
		return e
	default:
		p.fail("unexpected token %s in expression", p.tok)
		return nil
	}
}

// MustParse parses src and panics on error; for tests and embedded lab
// sources that are known-good.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("minic.MustParse: %v", err))
	}
	return prog
}

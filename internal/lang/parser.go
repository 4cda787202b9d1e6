package lang

// MaxNesting bounds the height of the tree Parse returns, counting every
// statement, block, else-if arm, parenthesis, unary operator and operator
// application as a level — so a left-deep chain such as 1+1+…+1 counts one
// level per operator. The checker and the compiler walk the tree
// recursively, so without a bound one hostile source could exhaust the
// goroutine stack. Real programs nest far less: no Table-2 benchmark source
// goes past 11 levels.
const MaxNesting = 1000

// Parser is a recursive-descent parser for MiniC.
type Parser struct {
	lex   *Lexer
	tok   Token
	err   error
	depth int // ancestors of the node being parsed
}

// Parse parses a MiniC translation unit.
func Parse(src string) (*File, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	f := &File{}
	for p.err == nil && p.tok.Kind != TokEOF {
		switch p.tok.Kind {
		case TokVar:
			d := p.parseVarDecl()
			if d != nil {
				f.Globals = append(f.Globals, d)
			}
		case TokFunc, TokLibrary:
			fd := p.parseFuncDecl()
			if fd != nil {
				f.Funcs = append(f.Funcs, fd)
			}
		default:
			p.fail("expected top-level declaration, found %s", p.tok)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return f, nil
}

func (p *Parser) next() {
	if p.err != nil {
		return
	}
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		p.tok = Token{Kind: TokEOF}
		return
	}
	p.tok = t
}

func (p *Parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = errf(p.tok.Pos, format, args...)
	}
	p.tok = Token{Kind: TokEOF}
}

// descend moves the parse one level down the tree, to a node's children,
// failing once they would sit deeper than MaxNesting. The caller steps back
// up with p.depth--.
func (p *Parser) descend() {
	p.depth++
	if p.depth >= MaxNesting {
		p.fail("nesting deeper than %d levels", MaxNesting)
	}
}

func (p *Parser) expect(k TokKind) Token {
	t := p.tok
	if t.Kind != k {
		p.fail("expected %s, found %s", k, t)
		return t
	}
	p.next()
	return t
}

func (p *Parser) accept(k TokKind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// parseVarDecl parses `var name;` or `var name[N];` (consumes the semicolon).
func (p *Parser) parseVarDecl() *VarDecl {
	pos := p.tok.Pos
	p.expect(TokVar)
	name := p.expect(TokIdent)
	d := &VarDecl{Pos: pos, Name: name.Text}
	if p.accept(TokLBracket) {
		n := p.expect(TokNumber)
		if n.Num <= 0 {
			p.fail("array %s must have positive size", d.Name)
			return nil
		}
		d.Size = n.Num
		p.expect(TokRBracket)
	}
	p.expect(TokSemi)
	if p.err != nil {
		return nil
	}
	return d
}

func (p *Parser) parseFuncDecl() *FuncDecl {
	pos := p.tok.Pos
	lib := p.accept(TokLibrary)
	p.expect(TokFunc)
	name := p.expect(TokIdent)
	fd := &FuncDecl{Pos: pos, Name: name.Text, Library: lib}
	p.expect(TokLParen)
	if p.tok.Kind != TokRParen {
		for {
			param := p.expect(TokIdent)
			fd.Params = append(fd.Params, param.Text)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	p.expect(TokRParen)
	fd.Body = p.parseBlock()
	if p.err != nil {
		return nil
	}
	return fd
}

func (p *Parser) parseBlock() *BlockStmt {
	pos := p.tok.Pos
	p.expect(TokLBrace)
	b := &BlockStmt{Pos: pos}
	p.descend()
	for p.err == nil && p.tok.Kind != TokRBrace && p.tok.Kind != TokEOF {
		s := p.parseStmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.depth--
	p.expect(TokRBrace)
	return b
}

func (p *Parser) parseStmt() Stmt {
	if p.tok.Kind == TokLBrace {
		return p.parseBlock() // the block is the statement
	}
	p.descend()
	defer func() { p.depth-- }()
	switch p.tok.Kind {
	case TokVar:
		return p.parseDeclStmt()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokSwitch:
		return p.parseSwitch()
	case TokReturn:
		pos := p.tok.Pos
		p.next()
		r := &ReturnStmt{Pos: pos}
		if p.tok.Kind != TokSemi {
			r.Value = p.parseExpr()
		}
		p.expect(TokSemi)
		return r
	case TokBreak:
		pos := p.tok.Pos
		p.next()
		p.expect(TokSemi)
		return &BreakStmt{Pos: pos}
	case TokContinue:
		pos := p.tok.Pos
		p.next()
		p.expect(TokSemi)
		return &ContinueStmt{Pos: pos}
	default:
		s := p.parseSimpleStmt()
		p.expect(TokSemi)
		return s
	}
}

func (p *Parser) parseDeclStmt() Stmt {
	pos := p.tok.Pos
	p.expect(TokVar)
	name := p.expect(TokIdent)
	d := &VarDecl{Pos: pos, Name: name.Text}
	ds := &DeclStmt{Decl: d}
	if p.accept(TokLBracket) {
		n := p.expect(TokNumber)
		if n.Num <= 0 {
			p.fail("array %s must have positive size", d.Name)
			return nil
		}
		d.Size = n.Num
		p.expect(TokRBracket)
	} else if p.accept(TokAssign) {
		ds.Init = p.parseExpr()
	}
	p.expect(TokSemi)
	return ds
}

// parseSimpleStmt parses an assignment or expression statement without the
// trailing semicolon (shared by statement and for-clause positions).
func (p *Parser) parseSimpleStmt() Stmt {
	pos := p.tok.Pos
	if p.tok.Kind != TokIdent {
		p.fail("expected statement, found %s", p.tok)
		return nil
	}
	name := p.tok.Text
	p.next()
	switch p.tok.Kind {
	case TokAssign:
		p.next()
		return &AssignStmt{Pos: pos, Name: name, Value: p.parseExpr()}
	case TokLBracket:
		p.next()
		idx := p.parseExpr()
		p.expect(TokRBracket)
		if p.accept(TokAssign) {
			return &AssignStmt{Pos: pos, Name: name, Index: idx, Value: p.parseExpr()}
		}
		p.fail("array element expression used as statement")
		return nil
	case TokLParen:
		call, _ := p.parseCall(pos, name)
		return &ExprStmt{Pos: pos, X: call}
	default:
		p.fail("expected =, [ or ( after identifier %s", name)
		return nil
	}
}

func (p *Parser) parseIf() Stmt {
	pos := p.tok.Pos
	p.expect(TokIf)
	p.expect(TokLParen)
	cond := p.parseExpr()
	p.expect(TokRParen)
	then := p.parseBlock()
	st := &IfStmt{Pos: pos, Cond: cond, Then: then}
	if p.accept(TokElse) {
		if p.tok.Kind == TokIf {
			p.descend()
			st.Else = p.parseIf()
			p.depth--
		} else {
			st.Else = p.parseBlock()
		}
	}
	return st
}

func (p *Parser) parseWhile() Stmt {
	pos := p.tok.Pos
	p.expect(TokWhile)
	p.expect(TokLParen)
	cond := p.parseExpr()
	p.expect(TokRParen)
	return &WhileStmt{Pos: pos, Cond: cond, Body: p.parseBlock()}
}

func (p *Parser) parseFor() Stmt {
	pos := p.tok.Pos
	p.expect(TokFor)
	p.expect(TokLParen)
	st := &ForStmt{Pos: pos}
	if p.tok.Kind != TokSemi {
		if p.tok.Kind == TokVar {
			st.Init = p.parseDeclStmt()
			// parseDeclStmt consumed the semicolon already.
		} else {
			st.Init = p.parseSimpleStmt()
			p.expect(TokSemi)
		}
	} else {
		p.expect(TokSemi)
	}
	if p.tok.Kind != TokSemi {
		st.Cond = p.parseExpr()
	}
	p.expect(TokSemi)
	if p.tok.Kind != TokRParen {
		st.Post = p.parseSimpleStmt()
	}
	p.expect(TokRParen)
	st.Body = p.parseBlock()
	return st
}

// parseSwitch parses:
//
//	switch (expr) { case 1: {..} case 2, 3: {..} default: {..} }
//
// Case values are integer literals (optionally negated); bodies are braced
// blocks with no fall-through.
func (p *Parser) parseSwitch() Stmt {
	pos := p.tok.Pos
	p.expect(TokSwitch)
	p.expect(TokLParen)
	st := &SwitchStmt{Pos: pos, X: p.parseExpr()}
	p.expect(TokRParen)
	p.expect(TokLBrace)
	for p.err == nil && p.tok.Kind != TokRBrace {
		switch p.tok.Kind {
		case TokCase:
			cpos := p.tok.Pos
			p.next()
			var vals []int64
			for {
				neg := p.accept(TokMinus)
				n := p.expect(TokNumber)
				v := n.Num
				if neg {
					v = -v
				}
				vals = append(vals, v)
				if !p.accept(TokComma) {
					break
				}
			}
			// ':' is not a MiniC token; reuse the statement grammar's body
			// brace directly after the values.
			st.Cases = append(st.Cases, SwitchCase{Pos: cpos, Vals: vals, Body: p.parseBlock()})
		case TokDefault:
			p.next()
			if st.Default != nil {
				p.fail("duplicate default case")
				return nil
			}
			st.Default = p.parseBlock()
		default:
			p.fail("expected case or default, found %s", p.tok)
			return nil
		}
	}
	p.expect(TokRBrace)
	return st
}

// Expression parsing by precedence climbing. Precedence (low to high):
//
//	|| ; && ; | ; ^ ; & ; == != ; < <= > >= ; << >> ; + - ; * / % ; unary
var binPrec = map[TokKind]int{
	TokOrOr: 1, TokAndAnd: 2, TokOr: 3, TokXor: 4, TokAnd: 5,
	TokEq: 6, TokNe: 6,
	TokLt: 7, TokLe: 7, TokGt: 7, TokGe: 7,
	TokShl: 8, TokShr: 8,
	TokPlus: 9, TokMinus: 9,
	TokStar: 10, TokSlash: 10, TokPct: 10,
}

func (p *Parser) parseExpr() Expr {
	e, _ := p.parseBinary(1)
	return e
}

// The expression parsers below return each expression with its height, so
// that parseBinary can bound the left-deep chains it builds in a loop.

func (p *Parser) parseBinary(minPrec int) (Expr, int) {
	left, h := p.parseUnary()
	for {
		prec, ok := binPrec[p.tok.Kind]
		if !ok || prec < minPrec {
			return left, h
		}
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		p.depth++
		right, hr := p.parseBinary(prec + 1)
		p.depth--
		// The new node pushes left one level down without any recursion
		// here, so the chain's height is checked per operator.
		h = 1 + max(h, hr)
		if p.depth+h > MaxNesting {
			p.fail("nesting deeper than %d levels", MaxNesting)
		}
		left = &BinaryExpr{Pos: pos, Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (Expr, int) {
	switch p.tok.Kind {
	case TokMinus, TokNot, TokTilde:
		pos := p.tok.Pos
		op := p.tok.Kind
		p.next()
		p.descend()
		x, h := p.parseUnary()
		p.depth--
		return &UnaryExpr{Pos: pos, Op: op, X: x}, h + 1
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, int) {
	switch p.tok.Kind {
	case TokNumber:
		e := &NumLit{Pos: p.tok.Pos, Val: p.tok.Num}
		p.next()
		return e, 1
	case TokLParen:
		p.next()
		p.descend()
		e, h := p.parseBinary(1)
		p.depth--
		p.expect(TokRParen)
		return e, h + 1
	case TokIdent:
		pos := p.tok.Pos
		name := p.tok.Text
		p.next()
		switch p.tok.Kind {
		case TokLParen:
			return p.parseCall(pos, name)
		case TokLBracket:
			p.next()
			p.descend()
			idx, h := p.parseBinary(1)
			p.depth--
			p.expect(TokRBracket)
			return &IndexExpr{Pos: pos, Name: name, Index: idx}, h + 1
		default:
			return &Ident{Pos: pos, Name: name}, 1
		}
	}
	p.fail("expected expression, found %s", p.tok)
	return &NumLit{Pos: p.tok.Pos}, 1
}

// parseCall parses a call's parenthesized arguments; the callee name has
// been consumed and the current token is the opening parenthesis.
func (p *Parser) parseCall(pos Pos, name string) (*CallExpr, int) {
	p.next()
	call := &CallExpr{Pos: pos, Name: name}
	h := 0
	p.descend()
	if p.tok.Kind != TokRParen {
		for {
			a, ha := p.parseBinary(1)
			call.Args = append(call.Args, a)
			h = max(h, ha)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	p.depth--
	p.expect(TokRParen)
	return call, h + 1
}

package lang

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestParserNeverPanics feeds the parser random byte soup and random
// token-ish text: it must return (possibly an error) without panicking.
func TestParserNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	alphabet := []string{
		"func", "var", "if", "else", "while", "for", "return", "break",
		"continue", "library", "main", "x", "y", "out", "(", ")", "{", "}",
		"[", "]", ";", ",", "=", "==", "!=", "<", "<=", ">", ">=", "<<",
		">>", "+", "-", "*", "/", "%", "&&", "||", "&", "|", "^", "!", "~",
		"0", "1", "42", "0xFF", "999999999",
	}
	for i := 0; i < 3000; i++ {
		var sb strings.Builder
		n := r.Intn(60)
		for j := 0; j < n; j++ {
			sb.WriteString(alphabet[r.Intn(len(alphabet))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("parser panicked on %q: %v", src, p)
				}
			}()
			if f, err := Parse(src); err == nil {
				// If it parses, checking must not panic either.
				_, _ = Check(f)
			}
		}()
	}
	// Raw byte soup too.
	for i := 0; i < 1000; i++ {
		buf := make([]byte, r.Intn(80))
		for j := range buf {
			buf[j] = byte(r.Intn(256))
		}
		src := string(buf)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("parser panicked on raw bytes %q: %v", src, p)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestLexerPositionsMonotone: token positions never go backwards.
func TestLexerPositionsMonotone(t *testing.T) {
	src := goodProgram
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	prevLine, prevCol := 0, 0
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		if tok.Pos.Line < prevLine || (tok.Pos.Line == prevLine && tok.Pos.Col <= prevCol) {
			t.Fatalf("token positions not monotone at %v (%v)", tok.Pos, tok)
		}
		prevLine, prevCol = tok.Pos.Line, tok.Pos.Col
	}
}

// TestDeeplyNestedProgram exercises recursion limits gently.
func TestDeeplyNestedProgram(t *testing.T) {
	depth := 200
	var sb strings.Builder
	sb.WriteString("func main() { var x = 0;\n")
	for i := 0; i < depth; i++ {
		sb.WriteString("if (x == 0) {\n")
	}
	sb.WriteString("x = 1;\n")
	for i := 0; i < depth; i++ {
		sb.WriteString("}\n")
	}
	sb.WriteString("out(x); }\n")
	f, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("deep nesting: %v", err)
	}
	if _, err := Check(f); err != nil {
		t.Fatalf("deep nesting check: %v", err)
	}
}

// TestParenNesting exercises deep expression nesting.
func TestParenNesting(t *testing.T) {
	expr := "1"
	for i := 0; i < 300; i++ {
		expr = "(" + expr + " + 1)"
	}
	src := "func main() { out(" + expr + "); }"
	if _, err := Parse(src); err != nil {
		t.Fatalf("deep parens: %v", err)
	}
}

// TestParseNestingBound builds each shape that deepens the tree — nested
// parentheses, a unary chain, a left-deep operator chain, nested blocks and
// an else-if chain — once MaxNesting+1 levels deep, which Parse must refuse
// with a positioned error, and once comfortably under the bound, which must
// parse and check.
func TestParseNestingBound(t *testing.T) {
	shapes := []struct {
		name string
		src  func(n int) string
	}{
		{"parentheses", func(n int) string {
			return "func main() { out(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "); }"
		}},
		{"unary chain", func(n int) string {
			return "func main() { out(" + strings.Repeat("- ", n) + "1); }"
		}},
		{"operator chain", func(n int) string {
			return "func main() { out(1" + strings.Repeat("+1", n) + "); }"
		}},
		{"nested blocks", func(n int) string {
			return "func main() { " + strings.Repeat("{ ", n) + "out(1);" + strings.Repeat(" }", n) + " }"
		}},
		{"else-if chain", func(n int) string {
			return "func main() { if (0) { out(0); }" + strings.Repeat(" else if (0) { out(0); }", n) + " else { out(1); } }"
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			_, err := Parse(sh.src(MaxNesting + 1))
			var lerr *Error
			if !errors.As(err, &lerr) || !strings.Contains(lerr.Msg, "nesting") || lerr.Pos.Line != 1 || lerr.Pos.Col <= 1 {
				t.Fatalf("%d levels: err = %v, want a positioned nesting error", MaxNesting+1, err)
			}
			f, err := Parse(sh.src(MaxNesting - 20))
			if err != nil {
				t.Fatalf("%d levels: %v", MaxNesting-20, err)
			}
			if _, err := Check(f); err != nil {
				t.Fatalf("%d levels: check: %v", MaxNesting-20, err)
			}
		})
	}
}

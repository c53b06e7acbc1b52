package tmql

import (
	"fmt"
	"strings"
	"unicode"
)

// Lexer turns TM query text into tokens. It is a straightforward hand-rolled
// scanner; TM's lexical structure has no surprises beyond case-insensitive
// keywords.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// appendTokens lexes src onto out. On a lexical error it returns the tokens
// appended so far along with the error.
func appendTokens(out []Token, src string) ([]Token, error) {
	lx := Lexer{src: src, line: 1, col: 1}
	for {
		t, err := lx.Next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) errorf(p Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	p := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: p}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		return lx.lexIdent(p), nil
	case c >= '0' && c <= '9':
		return lx.lexNumber(p)
	case c == '"' || c == '\'':
		return lx.lexString(p)
	}
	lx.advance()
	switch c {
	case '(':
		return Token{Kind: TokLParen, Text: "(", Pos: p}, nil
	case ')':
		return Token{Kind: TokRParen, Text: ")", Pos: p}, nil
	case '{':
		return Token{Kind: TokLBrace, Text: "{", Pos: p}, nil
	case '}':
		return Token{Kind: TokRBrace, Text: "}", Pos: p}, nil
	case '[':
		return Token{Kind: TokLBracket, Text: "[", Pos: p}, nil
	case ']':
		return Token{Kind: TokRBracket, Text: "]", Pos: p}, nil
	case ',':
		return Token{Kind: TokComma, Text: ",", Pos: p}, nil
	case '.':
		return Token{Kind: TokDot, Text: ".", Pos: p}, nil
	case '=':
		return Token{Kind: TokEq, Text: "=", Pos: p}, nil
	case '+':
		return Token{Kind: TokPlus, Text: "+", Pos: p}, nil
	case '-':
		return Token{Kind: TokMinus, Text: "-", Pos: p}, nil
	case '*':
		return Token{Kind: TokStar, Text: "*", Pos: p}, nil
	case '/':
		return Token{Kind: TokSlash, Text: "/", Pos: p}, nil
	case '%':
		return Token{Kind: TokPercent, Text: "%", Pos: p}, nil
	case '<':
		switch lx.peek() {
		case '=':
			lx.advance()
			return Token{Kind: TokLe, Text: "<=", Pos: p}, nil
		case '>':
			lx.advance()
			return Token{Kind: TokNe, Text: "<>", Pos: p}, nil
		}
		return Token{Kind: TokLt, Text: "<", Pos: p}, nil
	case '>':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: TokGe, Text: ">=", Pos: p}, nil
		}
		return Token{Kind: TokGt, Text: ">", Pos: p}, nil
	case '!':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: TokNe, Text: "<>", Pos: p}, nil
		}
	}
	return Token{}, lx.errorf(p, "unexpected character %q", c)
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '-' && lx.peek2() == '-': // SQL-style line comment
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (lx *Lexer) lexIdent(p Pos) Token {
	start := lx.off
	for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
		lx.advance()
	}
	word := lx.src[start:lx.off]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return Token{Kind: TokKeyword, Text: upper, Pos: p}
	}
	return Token{Kind: TokIdent, Text: word, Pos: p}
}

func (lx *Lexer) lexNumber(p Pos) (Token, error) {
	start := lx.off
	for lx.off < len(lx.src) && lx.peek() >= '0' && lx.peek() <= '9' {
		lx.advance()
	}
	isFloat := false
	// A dot starts a fraction only if followed by a digit; otherwise it is
	// field selection (e.g. after a parenthesized expression this cannot
	// happen with a bare literal, but "1.x" should be an error, not 1.0 x).
	if lx.peek() == '.' && lx.peek2() >= '0' && lx.peek2() <= '9' {
		isFloat = true
		lx.advance()
		for lx.off < len(lx.src) && lx.peek() >= '0' && lx.peek() <= '9' {
			lx.advance()
		}
	}
	if lx.peek() == 'e' || lx.peek() == 'E' {
		isFloat = true
		lx.advance()
		if lx.peek() == '+' || lx.peek() == '-' {
			lx.advance()
		}
		if !(lx.peek() >= '0' && lx.peek() <= '9') {
			return Token{}, lx.errorf(p, "malformed float exponent")
		}
		for lx.off < len(lx.src) && lx.peek() >= '0' && lx.peek() <= '9' {
			lx.advance()
		}
	}
	text := lx.src[start:lx.off]
	if isFloat {
		return Token{Kind: TokFloat, Text: text, Pos: p}, nil
	}
	return Token{Kind: TokInt, Text: text, Pos: p}, nil
}

func (lx *Lexer) lexString(p Pos) (Token, error) {
	quote := lx.advance()
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) {
			return Token{}, lx.errorf(p, "unterminated string")
		}
		c := lx.advance()
		if c == quote {
			return Token{Kind: TokString, Text: sb.String(), Pos: p}, nil
		}
		if c == '\\' {
			if lx.off >= len(lx.src) {
				return Token{}, lx.errorf(p, "unterminated string escape")
			}
			e := lx.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '\'', '"':
				sb.WriteByte(e)
			default:
				return Token{}, lx.errorf(p, "unknown escape \\%c", e)
			}
			continue
		}
		sb.WriteByte(c)
	}
}

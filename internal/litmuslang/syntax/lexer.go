package syntax

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The lexer. Tokens are identifiers (which include the dotted mnemonics
// "cs.enter" / "st.linked.r"), integer literals (decimal or 0x hex,
// optional leading '-', within the int32 range), double-quoted strings
// (Go escaping), and the punctuation the grammar needs. '#' and '//'
// start comments running to end of line. Newlines are not significant:
// operand counts are fixed per mnemonic, so the parser never needs a
// terminator.

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokLBrace // {
	tokRBrace // }
	tokLBrack // [
	tokRBrack // ]
	tokComma  // ,
	tokColon  // :
	tokAt     // @
	tokAmp    // &
	tokEq     // =
	tokPlus   // +
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of file"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokAt:
		return "'@'"
	case tokAmp:
		return "'&'"
	case tokEq:
		return "'='"
	case tokPlus:
		return "'+'"
	default:
		return fmt.Sprintf("tokKind(%d)", uint8(k))
	}
}

type token struct {
	kind tokKind
	text string // identifier or raw literal text
	ival int64  // value for tokInt
	str  string // unquoted value for tokString
	line int
}

func (t token) describe() string {
	switch t.kind {
	case tokIdent, tokInt:
		return fmt.Sprintf("%q", t.text)
	case tokString:
		return "string"
	default:
		return t.kind.String()
	}
}

// lexer tokenizes src on demand.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// errorf builds a positioned lex/parse error.
func (l *lexer) errorf(line int, format string, args ...any) error {
	return fmt.Errorf("litmus:%d: %s", line, fmt.Sprintf(format, args...))
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || r == '.' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// next scans the next token.
func (l *lexer) next() (token, error) {
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return token{kind: tokEOF, line: l.line}, nil
		}
		c := l.src[l.pos]
		// Comments.
		if c == '#' || (c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/') {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}

	start := l.pos
	line := l.line
	c := l.src[l.pos]
	switch c {
	case '{':
		l.pos++
		return token{kind: tokLBrace, line: line}, nil
	case '}':
		l.pos++
		return token{kind: tokRBrace, line: line}, nil
	case '[':
		l.pos++
		return token{kind: tokLBrack, line: line}, nil
	case ']':
		l.pos++
		return token{kind: tokRBrack, line: line}, nil
	case ',':
		l.pos++
		return token{kind: tokComma, line: line}, nil
	case ':':
		l.pos++
		return token{kind: tokColon, line: line}, nil
	case '@':
		l.pos++
		return token{kind: tokAt, line: line}, nil
	case '&':
		l.pos++
		// Accept both '&' and '&&' as the conjunction.
		if l.pos < len(l.src) && l.src[l.pos] == '&' {
			l.pos++
		}
		return token{kind: tokAmp, line: line}, nil
	case '=':
		l.pos++
		// Accept both '=' and '==' in conditions.
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokEq, line: line}, nil
	case '+':
		l.pos++
		return token{kind: tokPlus, line: line}, nil
	case '"':
		return l.lexString(line)
	}

	if c == '-' || c >= '0' && c <= '9' {
		return l.lexInt(line)
	}

	r, size := utf8.DecodeRuneInString(l.src[start:])
	if isIdentStart(r) {
		l.pos += size
		for l.pos < len(l.src) {
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentCont(r) {
				break
			}
			l.pos += size
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line}, nil
	}
	return token{}, l.errorf(line, "unexpected character %q", r)
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '\n':
			l.line++
			l.pos++
		case ' ', '\t', '\r':
			l.pos++
		default:
			return
		}
	}
}

func (l *lexer) lexInt(line int) (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
		if l.pos >= len(l.src) || l.src[l.pos] < '0' || l.src[l.pos] > '9' {
			return token{}, l.errorf(line, "'-' must start an integer literal")
		}
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' ||
			c == 'x' || c == 'X' {
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	// Values are 32-bit: the machine's state fingerprints encode register,
	// memory and cache words in four bytes, so a wider literal would make
	// distinct states indistinguishable to the model checker.
	v, err := strconv.ParseInt(strings.ToLower(text), 0, 32)
	if errors.Is(err, strconv.ErrRange) {
		return token{}, l.errorf(line, "integer literal %s outside the 32-bit value range %d..%d", text, math.MinInt32, math.MaxInt32)
	}
	if err != nil {
		return token{}, l.errorf(line, "bad integer literal %q", text)
	}
	return token{kind: tokInt, text: text, ival: v, line: line}, nil
}

func (l *lexer) lexString(line int) (token, error) {
	// Find the closing quote, honouring backslash escapes, then let
	// strconv handle the unquoting.
	i := l.pos + 1
	for i < len(l.src) {
		switch l.src[i] {
		case '\\':
			i += 2
			continue
		case '"':
			raw := l.src[l.pos : i+1]
			s, err := strconv.Unquote(raw)
			if err != nil {
				return token{}, l.errorf(line, "bad string literal %s", raw)
			}
			l.pos = i + 1
			return token{kind: tokString, str: s, line: line}, nil
		case '\n':
			return token{}, l.errorf(line, "unterminated string literal")
		}
		i++
	}
	return token{}, l.errorf(line, "unterminated string literal")
}

// Package minic implements the C-subset frontend that ConfLLVM compiles:
// a lexer (with a minimal #define preprocessor), an AST, and a recursive-
// descent parser supporting the features the paper's applications exercise —
// pointers, casts, arrays, structs/unions, function pointers, varargs and
// the `private` type qualifier.
//
// Integer literals follow C:
//
//   - decimal: a nonzero digit followed by digits; the value must fit in a
//     signed 64-bit integer;
//   - octal: a 0 followed by digits 0-7 (so 010 is 8, and 09 is an error);
//   - hex: 0x or 0X followed by at least one hex digit.
//
// Octal and hex literals may use all 64 bits (0xFFFFFFFFFFFFFFFF is -1);
// any literal needing more is rejected, never wrapped. The suffixes u, U,
// l and L are accepted after decimal and octal literals and ignored.
package minic

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// TokKind classifies tokens.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokStr
	TokPunct
)

// Token is a lexical token.
type Token struct {
	Kind TokKind
	Text string // identifier, keyword or punctuation text
	Int  int64  // TokInt value
	Flt  float64
	Str  string // TokStr decoded value
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokInt:
		return fmt.Sprintf("%d", t.Int)
	case TokFloat:
		return fmt.Sprintf("%g", t.Flt)
	case TokStr:
		return fmt.Sprintf("%q", t.Str)
	}
	return t.Text
}

var keywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"double": true, "float": true, "unsigned": true, "signed": true,
	"struct": true, "union": true, "if": true, "else": true, "while": true,
	"for": true, "do": true, "return": true, "break": true, "continue": true,
	"sizeof": true, "private": true, "extern": true, "static": true,
	"const": true, "switch": true, "case": true, "default": true,
	"goto": true, "typedef": true, "volatile": true, "NULL": false,
}

// Error is a diagnostic with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type lexer struct {
	src    string
	file   string
	off    int
	line   int
	col    int
	tokens []Token
}

// Lex tokenizes src, applying the single-pass #define preprocessor.
// Object-like macros only; macro bodies are token sequences substituted at
// use sites (one level, which covers the constant-style macros the
// workloads use, e.g. `#define SIZE 512`).
func Lex(file, src string) ([]Token, error) {
	l := &lexer{src: src, file: file, line: 1, col: 1}
	macros := map[string][]Token{}
	// Sources average about three bytes per token.
	out := make([]Token, 0, len(src)/2+16)
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		if tok.Kind == TokPunct && tok.Text == "#" {
			// Directive: only #define NAME tokens... (to end of line).
			dline := tok.Pos.Line
			name, err2 := l.next()
			if err2 != nil {
				return nil, err2
			}
			if name.Kind != TokIdent || name.Text != "define" || name.Pos.Line != dline {
				return nil, &Error{tok.Pos, "unsupported preprocessor directive"}
			}
			mname, err2 := l.next()
			if err2 != nil {
				return nil, err2
			}
			if mname.Kind != TokIdent && mname.Kind != TokKeyword {
				return nil, &Error{mname.Pos, "macro name expected after #define"}
			}
			var body []Token
			for {
				save := *l
				t, err3 := l.next()
				if err3 != nil {
					return nil, err3
				}
				if t.Kind == TokEOF || t.Pos.Line != dline {
					*l = save // put back
					break
				}
				body = append(body, t)
			}
			macros[mname.Text] = body
			continue
		}
		if tok.Kind == TokIdent {
			if _, ok := macros[tok.Text]; ok {
				out = expandMacro(out, tok, macros, map[string]bool{})
				continue
			}
		}
		out = append(out, tok)
		if tok.Kind == TokEOF {
			return out, nil
		}
	}
}

// expandMacro appends tok's macro body, rescanning it for further macro
// uses (as the C preprocessor does), with self-reference protection.
func expandMacro(out []Token, tok Token, macros map[string][]Token, active map[string]bool) []Token {
	active[tok.Text] = true
	defer delete(active, tok.Text)
	for _, bt := range macros[tok.Text] {
		bt.Pos = tok.Pos
		if bt.Kind == TokIdent && !active[bt.Text] {
			if _, ok := macros[bt.Text]; ok {
				out = expandMacro(out, bt, macros, active)
				continue
			}
		}
		out = append(out, bt)
	}
	return out
}

func (l *lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peekByte2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpace() error {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByte2() == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByte2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return &Error{start, "unterminated block comment"}
				}
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// punctuation, longest first.
var puncts = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "[", "]", "{", "}", ",", ";", ":", "?", ".", "#",
}

// punctsByFirst lists, for each first byte, the puncts starting with it in
// puncts order (longest first), so the first prefix match is the longest.
var punctsByFirst [256][]string

func init() {
	for _, p := range puncts {
		punctsByFirst[p[0]] = append(punctsByFirst[p[0]], p)
	}
}

func (l *lexer) next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if keywords[text] {
			return Token{Kind: TokKeyword, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil

	case isDigit(c) || (c == '.' && isDigit(l.peekByte2())):
		return l.number(pos)

	case c == '\'':
		l.advance()
		val, err := l.escapeChar(pos)
		if err != nil {
			return Token{}, err
		}
		if l.off >= len(l.src) || l.peekByte() != '\'' {
			return Token{}, &Error{pos, "unterminated character literal"}
		}
		l.advance()
		return Token{Kind: TokInt, Int: int64(val), Pos: pos}, nil

	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.off >= len(l.src) {
				return Token{}, &Error{pos, "unterminated string literal"}
			}
			if l.peekByte() == '"' {
				l.advance()
				break
			}
			ch, err := l.escapeChar(pos)
			if err != nil {
				return Token{}, err
			}
			b.WriteByte(ch)
		}
		return Token{Kind: TokStr, Str: b.String(), Pos: pos}, nil
	}

	for _, p := range punctsByFirst[c] {
		if strings.HasPrefix(l.src[l.off:], p) {
			// Puncts never contain a newline.
			l.off += len(p)
			l.col += len(p)
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	return Token{}, &Error{pos, fmt.Sprintf("unexpected character %q", c)}
}

func (l *lexer) escapeChar(pos Pos) (byte, error) {
	if l.off >= len(l.src) {
		return 0, &Error{pos, "unterminated literal"}
	}
	c := l.advance()
	if c != '\\' {
		return c, nil
	}
	if l.off >= len(l.src) {
		return 0, &Error{pos, "unterminated escape"}
	}
	e := l.advance()
	switch e {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	case 'x':
		v := 0
		for i := 0; i < 2 && l.off < len(l.src); i++ {
			h := l.peekByte()
			switch {
			case h >= '0' && h <= '9':
				v = v*16 + int(h-'0')
			case h >= 'a' && h <= 'f':
				v = v*16 + int(h-'a'+10)
			case h >= 'A' && h <= 'F':
				v = v*16 + int(h-'A'+10)
			default:
				return byte(v), nil
			}
			l.advance()
		}
		return byte(v), nil
	}
	return 0, &Error{pos, fmt.Sprintf("unknown escape \\%c", e)}
}

func (l *lexer) number(pos Pos) (Token, error) {
	start := l.off
	if l.peekByte() == '0' && (l.peekByte2() == 'x' || l.peekByte2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHexDigit(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if len(text) == 2 {
			return Token{}, &Error{pos, "malformed hex literal"}
		}
		return intLiteral(pos, text, text[2:], 16)
	}
	isFloat := false
	for l.off < len(l.src) {
		c := l.peekByte()
		if isDigit(c) {
			l.advance()
		} else if c == '.' && !isFloat {
			isFloat = true
			l.advance()
		} else if (c == 'e' || c == 'E') && l.off > start {
			isFloat = true
			l.advance()
			if l.off < len(l.src) && (l.peekByte() == '+' || l.peekByte() == '-') {
				l.advance()
			}
		} else {
			break
		}
	}
	text := l.src[start:l.off]
	// Swallow integer suffixes.
	for l.off < len(l.src) {
		c := l.peekByte()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'f' || c == 'F' {
			if c == 'f' || c == 'F' {
				isFloat = true
			}
			l.advance()
		} else {
			break
		}
	}
	if isFloat {
		var f float64
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return Token{}, &Error{pos, "malformed float literal " + text}
		}
		return Token{Kind: TokFloat, Flt: f, Pos: pos}, nil
	}
	if len(text) > 1 && text[0] == '0' {
		return intLiteral(pos, text, text[1:], 8)
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, &Error{pos, "malformed integer literal " + text}
	}
	return Token{Kind: TokInt, Int: v, Pos: pos}, nil
}

// intLiteral converts the digits of a hex or octal literal, which may use
// all 64 bits; text is the whole literal, for diagnostics. Only octal
// digits can be malformed: the hex scan stops at the first non-hex digit.
func intLiteral(pos Pos, text, digits string, base int) (Token, error) {
	v, err := strconv.ParseUint(digits, base, 64)
	switch {
	case errors.Is(err, strconv.ErrRange):
		return Token{}, &Error{pos, "malformed integer literal " + text}
	case err != nil:
		return Token{}, &Error{pos, "malformed octal literal " + text}
	}
	return Token{Kind: TokInt, Int: int64(v), Pos: pos}, nil
}

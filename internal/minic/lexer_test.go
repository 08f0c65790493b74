package minic

import (
	"fmt"
	"strings"
)

// refPuncts is the original lexer's punctuation list, longest first; a
// separate copy, so that a candidate dropped from puncts shows up as a
// divergence.
var refPuncts = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "[", "]", "{", "}", ",", ";", ":", "?", ".", "#",
}

// refNext is next with the original punctuation matching: a linear scan of
// refPuncts for the first prefix match. Every other token class goes
// through the shared scanner.
func (l *lexer) refNext() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return l.next()
	}
	c := l.peekByte()
	if isIdentStart(c) || isDigit(c) || (c == '.' && isDigit(l.peekByte2())) || c == '\'' || c == '"' {
		return l.next()
	}
	for _, p := range refPuncts {
		if strings.HasPrefix(l.src[l.off:], p) {
			for range p {
				l.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	return Token{}, &Error{pos, fmt.Sprintf("unexpected character %q", c)}
}

// rawTokens is the unpreprocessed token stream of src up to EOF or the
// first error, from next or, with ref, from refNext.
func rawTokens(src string, ref bool) ([]Token, error) {
	l := &lexer{src: src, file: "t.c", line: 1, col: 1}
	var toks []Token
	for {
		var tok Token
		var err error
		if ref {
			tok, err = l.refNext()
		} else {
			tok, err = l.next()
		}
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
		if len(toks) > len(src)+1 {
			return toks, fmt.Errorf("lexer made no progress at offset %d", l.off)
		}
	}
}

// CompareWithReference lexes src with the production and reference
// scanners and describes the first difference, or returns "".
func CompareWithReference(src string) string {
	got, gotErr := rawTokens(src, false)
	want, wantErr := rawTokens(src, true)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("token %d: got %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d tokens, reference %d", len(got), len(want))
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	return ""
}

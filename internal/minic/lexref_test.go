package minic_test

import (
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/minic"
)

// punctSource holds every punctuation token, spaced and run together, so
// that a candidate missing from the dispatch table shows up even if no
// benchmark uses it.
const punctSource = `<<= >>= ... == != <= >= && || << >> ++ -- += -= *= /= %= &= |= ^= ->
+ - * / % & | ^ ~ ! < > = ( ) [ ] { } , ; : ? . #
a<<=b>>=c...d==e!=f<=g>=h&&i||j<<k>>l++m--n+=o-=p*=q/=r%=s&=t|=u^=v->w
+-*/%&|^~!<>=()[]{},;:?.# <<<>>>....=== ->->--->`

// corpusSources lists every distinct benchmark and example source, plus
// punctSource.
func corpusSources() []string {
	seen := map[string]bool{}
	var srcs []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			srcs = append(srcs, s)
		}
	}
	for _, wl := range bench.Workloads(false) {
		for _, v := range confllvm.AllVariants() {
			for _, s := range wl.Prog(v).Sources {
				add(s.Code)
			}
		}
	}
	add(bench.QuickstartBuggySrc)
	add(punctSource)
	return srcs
}

// TestLexMatchesReference requires the first-byte punctuation dispatch to
// produce exactly the token stream of the original linear scan on every
// benchmark and example source.
func TestLexMatchesReference(t *testing.T) {
	srcs := corpusSources()
	if len(srcs) < 10 {
		t.Fatalf("only %d sources", len(srcs))
	}
	for i, src := range srcs {
		if d := minic.CompareWithReference(src); d != "" {
			t.Errorf("source %d: %s", i, d)
		}
		if _, err := minic.Lex("t.c", src); err != nil && src != punctSource {
			t.Errorf("source %d: %v", i, err)
		}
	}
}

// FuzzLex checks the same equivalence on arbitrary input, and that Lex
// never panics.
func FuzzLex(f *testing.F) {
	for _, src := range corpusSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := minic.CompareWithReference(src); d != "" {
			t.Fatal(d)
		}
		// Macro bodies may expand to other macros, so n nested defines
		// can multiply the token count by 2^n; bound n to keep the
		// fuzzer's memory in check.
		if strings.Count(src, "#") <= 8 {
			_, _ = minic.Lex("t.c", src)
		}
	})
}

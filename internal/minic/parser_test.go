package minic

import (
	"strings"
	"testing"

	"confllvm/internal/types"
)

func parse(t *testing.T, src string) *File {
	t.Helper()
	gen := &QualGen{}
	f, err := Parse("t.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	gen := &QualGen{}
	_, err := Parse("t.c", src, nil, gen)
	if err == nil {
		t.Fatalf("expected a parse error")
	}
	return err
}

func TestDeclaratorShapes(t *testing.T) {
	f := parse(t, `
int a;
int *b;
int **c;
int d[10];
int *e[4];
int (*g)[4];
int (*h)(int, char*);
int (*tbl[3])(int);
private char *p;
char * private q;
`)
	byName := map[string]*types.Type{}
	for _, g := range f.Globals {
		byName[g.Name] = g.Type
	}
	checks := []struct {
		name string
		want string
	}{
		{"a", "int32"},
		{"b", "int32*"},
		{"c", "int32**"},
		{"d", "int32[10]"},
		{"e", "int32*[4]"},
		{"g", "int32[4]*"},
		{"h", "fn(int32, int8*) int32*"},
		{"tbl", "fn(int32) int32*[3]"},
		{"p", "private int8*"},
		{"q", "private int8*"}, // qualifier position differs, meaning differs
	}
	for _, c := range checks {
		got := byName[c.name]
		if got == nil {
			t.Errorf("%s: missing", c.name)
			continue
		}
		if c.name == "q" {
			// `char * private q`: the POINTER is private, pointing to
			// public char.
			if got.Kind != types.Ptr || got.Qual != types.Private || got.Elem.Qual != types.Public {
				t.Errorf("q: got %s, want private pointer to public char", got)
			}
			continue
		}
		if got.String() != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
	// p: public pointer to private char.
	p := byName["p"]
	if p.Qual != types.Public || p.Elem.Qual != types.Private {
		t.Errorf("p: got %s, want public pointer to private char", p)
	}
}

func TestStructLayoutAndUnions(t *testing.T) {
	f := parse(t, `
struct s { char a; int b; char c; long d; };
union u { int i; long l; char buf[12]; };
struct s g;
union u v;
`)
	s := f.Structs["struct s"]
	if s.SizeOf() != 24 {
		t.Errorf("struct size = %d, want 24", s.SizeOf())
	}
	bTy, off := s.FieldType("b")
	if bTy == nil || off != 4 {
		t.Errorf("field b at %d, want 4", off)
	}
	_, doff := s.FieldType("d")
	if doff != 16 {
		t.Errorf("field d at %d, want 16", doff)
	}
	u := f.Structs["union u"]
	if u.SizeOf() != 16 { // 12 rounded to alignment 8
		t.Errorf("union size = %d, want 16", u.SizeOf())
	}
}

func TestMacros(t *testing.T) {
	f := parse(t, `
#define N 16
#define TWO_N (N * 2)
int arr[TWO_N];
`)
	if f.Globals[0].Type.Len != 32 {
		t.Errorf("macro expansion: len = %d, want 32", f.Globals[0].Type.Len)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	// 2 + 3 * 4 == 14, (2+3)*4 == 20, shifts, ternary, logicals.
	cases := map[string]int64{
		"2 + 3 * 4":        14,
		"(2 + 3) * 4":      20,
		"1 << 3 | 1":       9,
		"10 - 4 - 3":       3,
		"7 & 3 | 8":        11,
		"~0 & 15":          15,
		"1 + 2 == 3":       1,
		"4 / 2 / 2":        1,
		"5 % 3":            2,
		"-3 * -2":          6,
		"(1 << 4) >> 2":    4,
		"sizeof(long) * 2": 16,
	}
	for expr, want := range cases {
		f := parse(t, "long x = "+expr+";")
		c, ok := FoldConst(f.Globals[0].Init)
		got := c.Int
		if f.Globals[0].Init == nil {
			// folded into Inits? scalar init is Init
			t.Fatalf("%s: no init", expr)
		}
		if !ok || got != want {
			t.Errorf("%s = %d (ok=%v), want %d", expr, got, ok, want)
		}
	}
}

func TestStringAndCharEscapes(t *testing.T) {
	f := parse(t, `char s[8] = "a\n\x41"; int c = '\t';`)
	if *f.Globals[0].StrVal != "a\nA" {
		t.Errorf("string escape: %q", *f.Globals[0].StrVal)
	}
	c, _ := FoldConst(f.Globals[1].Init)
	if v := c.Int; v != '\t' {
		t.Errorf("char escape: %d", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( {",
		"int x = ;",
		"struct s { int a };", // missing ; after field? actually valid... use a real error:
		"int a[3 = 4];",
		"void f() { if x) {} }",
		"void f() { return 1 }",
		"#define\nint x;",
		`char *s = "unterminated;`,
	}
	for _, src := range cases {
		gen := &QualGen{}
		if _, err := Parse("e.c", src, nil, gen); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestVarargsParse(t *testing.T) {
	f := parse(t, `int p(char *fmt, ...) { return 0; }`)
	if !f.Funcs[0].Sig.Variadic {
		t.Error("variadic flag lost")
	}
}

func TestPositionsInErrors(t *testing.T) {
	err := parseErr(t, "int x;\nint y = @;\n")
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line info: %v", err)
	}
}

// TestIntegerLiterals pins the literal rules of the package doc: C octal
// for a leading zero, and no silent wrap past 64 bits in any base.
func TestIntegerLiterals(t *testing.T) {
	values := map[string]int64{
		"0":                       0,
		"00":                      0,
		"010":                     8,
		"0777":                    511,
		"010u":                    8,
		"42":                      42,
		"42UL":                    42,
		"0x1F":                    31,
		"0XffFFffFFffFFffFF":      -1,
		"01777777777777777777777": -1, // all 64 bits in octal
		"9223372036854775807":     9223372036854775807,
	}
	for lit, want := range values {
		f := parse(t, "long x = "+lit+";")
		c, ok := FoldConst(f.Globals[0].Init)
		if got := c.Int; !ok || got != want {
			t.Errorf("%s = %d (ok=%v), want %d", lit, got, ok, want)
		}
	}
	errs := map[string]string{
		"09":                      "malformed octal literal 09",
		"0x1FFFFFFFFFFFFFFFF":     "malformed integer literal 0x1FFFFFFFFFFFFFFFF",
		"02000000000000000000000": "malformed integer literal 02000000000000000000000",
		"9223372036854775808":     "malformed integer literal 9223372036854775808",
		"0x;":                     "malformed hex literal",
		"0x":                      "malformed hex literal", // at end of file
	}
	for lit, want := range errs {
		err := parseErr(t, "long x = "+lit)
		if !strings.HasSuffix(err.Error(), ": "+want) {
			t.Errorf("%s: error %q, want %q", lit, err, want)
		}
	}
}

package irgen

import (
	"fmt"
	"strings"
	"testing"

	"confllvm/internal/ir"
	"confllvm/internal/minic"
	"confllvm/internal/opt"
	"confllvm/internal/taint"
	"confllvm/internal/types"
)

func TestGenSimple(t *testing.T) {
	gen := &minic.QualGen{}
	f, err := minic.Parse("t.c", `
int add(int a, int b) { return a + b; }
int main() { return add(2, 3); }
`, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	if mod.Func("add") == nil || mod.Func("main") == nil {
		t.Fatal("functions missing")
	}
	if _, err := taint.Infer(mod, gen.Count(), taint.Options{Strict: true}); err != nil {
		t.Fatalf("taint: %v", err)
	}
}

func TestGenWebServerExample(t *testing.T) {
	// The paper's Figure 1 fragment (with the send-password bug removed).
	gen := &minic.QualGen{}
	src := `
#define SIZE 64
extern int recv(int fd, char *buf, int buf_size);
extern int send(int fd, char *buf, int buf_size);
extern void decrypt(char *ciphertxt, private char *data);
extern void read_passwd(char *uname, private char *pass, int size);
extern void read_file(char *fname, char *out, int size);

int authenticate(char *uname, private char *upass, private char *pass) {
	int i;
	for (i = 0; i < SIZE; i++) {
		if (upass[i] != pass[i]) return 0;
		if (upass[i] == 0) break;
	}
	return 1;
}

void handleReq(char *uname, private char *upasswd, char *fname,
               char *out, int out_size) {
	char passwd[SIZE];
	char fcontents[SIZE];
	read_passwd(uname, passwd, SIZE);
	if (!authenticate(uname, upasswd, passwd)) {
		return;
	}
	read_file(fname, fcontents, SIZE);
	int i;
	for (i = 0; i < out_size; i++) out[i] = fcontents[i];
}
`
	f, err := minic.Parse("web.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	opt.Run(mod, opt.O2())
	// Not strict: authenticate branches on private data (the password
	// comparison), which is intentional declassification-free auth logic
	// in this toy; strict mode must flag it.
	a, err := taint.Infer(mod, gen.Count(), taint.Options{Strict: false})
	if err != nil {
		t.Fatalf("taint: %v", err)
	}
	if len(a.BranchWarnings) == 0 {
		t.Error("expected implicit-flow warnings from authenticate")
	}
	// passwd must have been inferred private: its alloca type qual
	// resolves to Private.
	h := mod.Func("handleReq")
	found := false
	for _, al := range h.Allocas {
		if al.Name == "passwd" {
			found = true
			if !a.IsPrivate(al.Type.Qual) {
				t.Errorf("passwd should be inferred private, got %s", a.Of(al.Type.Qual))
			}
		}
		if al.Name == "fcontents" {
			if a.IsPrivate(al.Type.Qual) {
				t.Errorf("fcontents should be public")
			}
		}
	}
	if !found {
		t.Fatal("passwd alloca not found")
	}
}

func TestGenLeakDetected(t *testing.T) {
	// The paper's line-10 bug: sending the private password to a public
	// sink must be a compile-time taint error.
	gen := &minic.QualGen{}
	src := `
extern int send(int fd, char *buf, int buf_size);
extern void read_passwd(char *uname, private char *pass, int size);

void leak(char *uname) {
	char passwd[32];
	read_passwd(uname, passwd, 32);
	send(1, passwd, 32);
}
`
	f, err := minic.Parse("leak.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	if _, err := taint.Infer(mod, gen.Count(), taint.Options{}); err == nil {
		t.Fatal("expected a taint violation for the password leak")
	}
}

func TestGenCastHidesLeak(t *testing.T) {
	// Pointer casts sever the static linkage (Minizip scenario): the
	// leak must NOT be caught statically (runtime checks catch it).
	gen := &minic.QualGen{}
	src := `
extern int send(int fd, char *buf, int buf_size);
extern void read_passwd(char *uname, private char *pass, int size);

void leak(char *uname) {
	char passwd[32];
	read_passwd(uname, passwd, 32);
	send(1, (char*)(void*)passwd, 32);
}
`
	f, err := minic.Parse("cast.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	if _, err := taint.Infer(mod, gen.Count(), taint.Options{}); err != nil {
		t.Fatalf("cast should hide the leak statically, got: %v", err)
	}
}

func TestStructQualInheritance(t *testing.T) {
	gen := &minic.QualGen{}
	src := `
struct pair { int a; int b; };
extern void sink_pub(int x);
extern void src_priv(private int *out);

void f() {
	private struct pair p;
	src_priv(&p.a);
	sink_pub(p.b);
}
`
	f, err := minic.Parse("st.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	// p is private, so p.b is private and passing it to a public sink
	// must fail.
	if _, err := taint.Infer(mod, gen.Count(), taint.Options{}); err == nil {
		t.Fatal("expected violation: field of private struct flows to public sink")
	}
}

func TestFunctionPointers(t *testing.T) {
	gen := &minic.QualGen{}
	src := `
int h0(int x) { return x + 1; }
int h1(int x) { return x * 2; }
int (*table[2])(int) = { h0, h1 };

int dispatch(int i, int v) {
	return table[i](v);
}
`
	f, err := minic.Parse("fp.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	g := mod.Global("table")
	if g == nil {
		t.Fatal("table global missing")
	}
	if len(g.Relocs) != 2 {
		t.Fatalf("want 2 relocs in table, got %d", len(g.Relocs))
	}
	if _, err := taint.Infer(mod, gen.Count(), taint.Options{Strict: true}); err != nil {
		t.Fatalf("taint: %v", err)
	}
}

func TestVarargs(t *testing.T) {
	gen := &minic.QualGen{}
	src := `
int sum(int n, ...) {
	char *ap = __va_start();
	int total = 0;
	int i;
	for (i = 0; i < n; i++) {
		total += (int)__va_arg(ap, long);
	}
	return total;
}
int main() { return sum(3, 1, 2, 3); }
`
	f, err := minic.Parse("va.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	if !mod.Func("sum").Sig.Variadic {
		t.Fatal("sum should be variadic")
	}
	if _, err := taint.Infer(mod, gen.Count(), taint.Options{Strict: true}); err != nil {
		t.Fatalf("taint: %v", err)
	}
}

func TestPrivateVarargIsError(t *testing.T) {
	gen := &minic.QualGen{}
	src := `
extern void get_secret(private int *out);
int logf(char *fmt, ...) { return 0; }
void f() {
	int s;
	get_secret(&s);
	logf("v=%d", s);
}
`
	f, err := minic.Parse("pv.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	if _, err = taint.Infer(mod, gen.Count(), taint.Options{}); err == nil {
		t.Fatal("expected violation: private value passed as vararg")
	}
	if !strings.Contains(err.Error(), "variadic") {
		t.Fatalf("unexpected error: %v", err)
	}
}

var _ = types.Public

// TestDivisionCarriesItsType: every div and mod carries its operation
// type in Ty, the common type of its operands whatever its result is
// assigned to (compound assignments and pointer differences too).
func TestDivisionCarriesItsType(t *testing.T) {
	gen := &minic.QualGen{}
	src := `
long f(int i, unsigned u, long *p, long *q) {
	long a = i / 3;
	int b = u % 7;
	unsigned long c = 10;
	c /= i;
	return a + b + c + (p - q);
}
`
	file, err := minic.Parse("div.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Gen([]*minic.File{file}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	var got []string
	for _, b := range mod.Func("f").Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpDiv || in.Op == ir.OpMod {
				got = append(got, fmt.Sprintf("%v %d/%v", in.Op, in.Ty.Size, in.Ty.Signed))
			}
		}
	}
	want := []string{"div 4/true", "mod 4/false", "div 8/false", "div 8/true"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("div/mod types %v, want %v", got, want)
	}
}

// genErr lowers src and returns irgen's error.
func genErr(t *testing.T, src string) error {
	t.Helper()
	gen := &minic.QualGen{}
	f, err := minic.Parse("t.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Gen([]*minic.File{f}, gen)
	return err
}

// TestRedeclarations: a function has one signature. A redeclaration must
// agree with the first declaration in shape and in where `private` is
// written; an array parameter agrees with a pointer one, as in C.
func TestRedeclarations(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"fewer params than the prototype", `
long f(long a, long b);
long g() { return f(40, 2); }
long f(long a) { return a; }`, "conflicting types for f"},
		{"private dropped from a parameter", `
long f(private long a);
long f(long a) { return 1; }`, "conflicting types for f"},
		{"private added to a pointee", `
long f(long *p);
long f(private long *p) { return 1; }`, "conflicting types for f"},
		{"private dropped from the return", `
private long f(long a);
long f(long a) { return a; }`, "conflicting types for f"},
		{"a defined trusted function", `
extern long f(long a);
long f(long a) { return a; }`, "conflicting types for f"},
		{"defined twice", `
long f(long a) { return a; }
long f(long a) { return a + 1; }`, "function f redefined"},
		{"prototype, then definition", `
long f(private long a, long *p);
long g(private long s, long *q) { return f(s, q); }
long f(private long b, long *r) { return r[0]; }`, ""},
		{"array parameter is a pointer", `
long f(long *a);
long f(long a[]) { return a[0]; }`, ""},
	} {
		err := genErr(t, tc.src)
		if tc.want == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestPointerArithmeticTypes: a pointer takes part only in ptr ± int,
// int + ptr and ptr - ptr; every other arithmetic operator on a pointer,
// and a compound assignment whose result changes pointer-ness, is an
// error.
func TestPointerArithmeticTypes(t *testing.T) {
	for _, body := range []string{
		"return p / 2;", "return p % 2;", "return p * 2;", "return p & 7;", "return p | q;", "return p ^ q;",
		"return p << 1;", "return p >> 1;", "return 1 << p;", "return 3 - p;",
		"return p + q;", "long i = 3; i += p; return i;", "p -= q; return 0;",
		"p *= 2; return 0;", "long i = 3; i &= p; return i;",
	} {
		err := genErr(t, "long f(long *p, long *q) { "+body+" }")
		if err == nil || !strings.Contains(err.Error(), "invalid operands") {
			t.Errorf("%s: err = %v, want invalid operands", body, err)
		}
	}
	for _, body := range []string{
		"return *(p + 1);", "return *(1 + p);", "return *(p - 1);", "return p - q;",
		"p += 2; return *p;", "p -= 2; return *p;", "long i = p - q; i += 1; return i;",
		"return (long)p & 7;",
	} {
		if err := genErr(t, "long f(long *p, long *q) { "+body+" }"); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

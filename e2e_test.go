package confllvm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// runSrc compiles and runs a program in one variant, failing on any
// pipeline error or machine fault.
func runSrc(t *testing.T, v Variant, w *World, srcs ...Source) *Result {
	t.Helper()
	art, err := Compile(Program{Sources: srcs}, v)
	if err != nil {
		t.Fatalf("[%v] compile: %v", v, err)
	}
	res, err := Run(art, w, nil)
	if err != nil {
		t.Fatalf("[%v] run: %v", v, err)
	}
	if res.Fault != nil {
		t.Fatalf("[%v] fault: %v", v, res.Fault)
	}
	return res
}

func TestE2EReturnValue(t *testing.T) {
	src := Source{"fib.c", `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }
`}
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if res.ExitCode != 144 {
			t.Errorf("[%v] fib(12) = %d, want 144", v, res.ExitCode)
		}
	}
}

func TestE2EArraysAndLoops(t *testing.T) {
	src := Source{"arr.c", `
extern void output(long v);
int main() {
	int a[32];
	int i;
	long sum = 0;
	for (i = 0; i < 32; i++) a[i] = i * i;
	for (i = 0; i < 32; i++) sum += a[i];
	output(sum);
	return 0;
}
`}
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if len(res.Outputs) != 1 || res.Outputs[0] != 10416 {
			t.Errorf("[%v] outputs = %v, want [10416]", v, res.Outputs)
		}
	}
}

func TestE2EStructsPointers(t *testing.T) {
	src := Source{"st.c", `
struct node { int val; struct node *next; };
extern void *malloc(long size);
extern void output(long v);

int main() {
	struct node *head = NULL;
	int i;
	for (i = 1; i <= 5; i++) {
		struct node *n = (struct node*)malloc(sizeof(struct node));
		n->val = i * 10;
		n->next = head;
		head = n;
	}
	long sum = 0;
	while (head) {
		sum += head->val;
		head = head->next;
	}
	output(sum);
	return 0;
}
`}
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if len(res.Outputs) != 1 || res.Outputs[0] != 150 {
			t.Errorf("[%v] outputs = %v, want [150]", v, res.Outputs)
		}
	}
}

func TestE2EFunctionPointers(t *testing.T) {
	src := Source{"fp.c", `
extern void output(long v);
int twice(int x) { return 2 * x; }
int square(int x) { return x * x; }
int (*ops[2])(int) = { twice, square };
int main() {
	int i;
	long acc = 0;
	for (i = 0; i < 2; i++) acc += ops[i](7);
	output(acc);
	return 0;
}
`}
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if len(res.Outputs) != 1 || res.Outputs[0] != 63 {
			t.Errorf("[%v] outputs = %v, want [63]", v, res.Outputs)
		}
	}
}

func TestE2EPrivateDataFlow(t *testing.T) {
	// Private data round-trips through decrypt -> private buffer ->
	// encrypt -> send; the cleartext secret must never appear in NetOut.
	src := Source{"priv.c", `
extern int recv(int fd, char *buf, int size);
extern int send(int fd, char *buf, int size);
extern void decrypt(char *src, private char *dst, int size);
extern void encrypt(private char *src, char *dst, int size);

int main() {
	char in[32];
	private char secret[32];
	char out[32];
	int n = recv(0, in, 32);
	decrypt(in, secret, 32);
	// ... compute on secret in the private region ...
	int i;
	for (i = 0; i < 32; i++) secret[i] = secret[i] ^ 1;
	encrypt(secret, out, 32);
	send(1, out, 32);
	return n;
}
`}
	secret := []byte("top-secret-password-0123456789!")
	for _, v := range []Variant{VariantMPX, VariantSeg} {
		art, err := Compile(Program{Sources: []Source{src}}, v)
		if err != nil {
			t.Fatalf("[%v] compile: %v", v, err)
		}
		w := NewWorld()
		// Encrypt the secret as it would arrive on the wire.
		res0, err := Run(art, w, nil) // first run just to build a TCtx for key access
		if err != nil {
			t.Fatalf("[%v] run: %v", v, err)
		}
		enc := res0.TCtx.EncryptBytes(secret)
		w2 := NewWorld()
		w2.NetIn = [][]byte{enc}
		res, err := Run(art, w2, nil)
		if err != nil {
			t.Fatalf("[%v] run: %v", v, err)
		}
		if res.Fault != nil {
			t.Fatalf("[%v] fault: %v", v, res.Fault)
		}
		if res.ExitCode != 31 && res.ExitCode != 32 {
			t.Errorf("[%v] exit=%d", v, res.ExitCode)
		}
		for _, pkt := range res.NetOut {
			if bytes.Contains(pkt, secret[:16]) {
				t.Errorf("[%v] cleartext secret leaked to the network", v)
			}
		}
	}
}

// TestE2EQualifiedConstantsStayApart pins the local CSE constant key.
// main is one block that opens with uninitialized locals, so its first
// zeros are typed by their declarations: a private and a public 0, then
// NULLs to a private and a public pointee. Each first zero's local is
// redefined before the second is read, so a merged copy would survive
// copy propagation and inference would unify the two types: n would turn
// private and leak to output, and qp's pointee would turn private and,
// through keep, so would the uname buffer. The program must compile
// strict with no implicit-flow warnings under both checked schemes, pass
// ConfVerify, and print what Base prints.
func TestE2EQualifiedConstantsStayApart(t *testing.T) {
	src := Source{"zeros.c", `
extern void read_passwd(char *uname, private char *pass, int size);
extern long hash_declass(private char *buf, int size);
extern void output(long v);

char *keep(char *p) { return p; }

int main() {
	private char pw[16];
	private long s;
	long n;
	s = 7;
	private char *pp;
	char *qp;
	pp = pw;
	keep(qp);
	char u[8] = "bob";
	keep(u);
	read_passwd(u, pw, 16);
	s = s + pw[0] + pp[1];
	n = n + u[0] + u[1];
	pp[2] = (char)s;
	output(n);
	output(hash_declass(pp, 3));
	return 0;
}
`}
	run := func(v Variant) *Result {
		art, err := Compile(Program{Sources: []Source{src}, Strict: true}, v)
		if err != nil {
			t.Fatalf("[%v] compile: %v", v, err)
		}
		if len(art.Warnings) != 0 {
			t.Errorf("[%v] warnings %q, want none", v, art.Warnings)
		}
		if main := art.IR.Func("main"); len(main.Blocks) != 1 {
			t.Fatalf("[%v] main has %d blocks, want 1:\n%s", v, len(main.Blocks), main)
		}
		if v.Checked() {
			if err := Verify(art); err != nil {
				t.Fatalf("[%v] verify: %v", v, err)
			}
		}
		w := NewWorld()
		w.Passwords["bob"] = []byte("hunter2")
		res, err := Run(art, w, nil)
		if err != nil {
			t.Fatalf("[%v] run: %v", v, err)
		}
		if res.Fault != nil {
			t.Fatalf("[%v] fault: %v", v, res.Fault)
		}
		return res
	}
	want := run(VariantBase).Outputs
	if len(want) != 2 || want[0] != 'b'+'o' {
		t.Fatalf("Base outputs %v, want [%d <hash>]", want, 'b'+'o')
	}
	for _, v := range []Variant{VariantMPX, VariantSeg} {
		if got := run(v).Outputs; !reflect.DeepEqual(got, want) {
			t.Errorf("[%v] outputs %v, Base printed %v", v, got, want)
		}
	}
}

func TestE2EVarargs(t *testing.T) {
	src := Source{"va.c", `
extern void output(long v);
long sum(int n, ...) {
	char *ap = __va_start();
	long total = 0;
	int i;
	for (i = 0; i < n; i++) total += __va_arg(ap, long);
	return total;
}
int main() {
	output(sum(4, 10, 20, 30, 40));
	output(sum(0));
	return 0;
}
`}
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if len(res.Outputs) != 2 || res.Outputs[0] != 100 || res.Outputs[1] != 0 {
			t.Errorf("[%v] outputs = %v, want [100 0]", v, res.Outputs)
		}
	}
}

func TestE2EFloat(t *testing.T) {
	src := Source{"flt.c", `
extern void output(long v);
int main() {
	double a[8];
	int i;
	for (i = 0; i < 8; i++) a[i] = i * 1.5;
	double s = 0.0;
	for (i = 0; i < 8; i++) s = s + a[i] * a[i];
	output((long)s);
	return 0;
}
`}
	// sum of (1.5 i)^2 for i=0..7 = 2.25 * 140 = 315
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if len(res.Outputs) != 1 || res.Outputs[0] != 315 {
			t.Errorf("[%v] outputs = %v, want [315]", v, res.Outputs)
		}
	}
}

func TestE2EGlobals(t *testing.T) {
	src := Source{"glob.c", `
extern void output(long v);
int counter = 5;
int table[4] = { 1, 2, 3, 4 };
char msg[8] = "hey";
int main() {
	counter += table[2];
	output(counter);
	output(msg[1]);
	return 0;
}
`}
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if len(res.Outputs) != 2 || res.Outputs[0] != 8 || res.Outputs[1] != 'e' {
			t.Errorf("[%v] outputs = %v, want [8 101]", v, res.Outputs)
		}
	}
}

func TestE2EThreads(t *testing.T) {
	src := Source{"thr.c", `
extern void thread_spawn(void (*fn)(long), long arg);
extern void output(long v);
int results[4];
void worker(long id) {
	long i;
	long acc = 0;
	for (i = 0; i < 1000; i++) acc += i * (id + 1);
	results[id] = (int)acc;
}
int main() {
	long i;
	for (i = 0; i < 4; i++) thread_spawn(worker, i);
	return 0;
}
`}
	// Threads finish before the run ends; check results via memory would
	// need white-box access; instead have main compute after spawn. The
	// machine runs all threads to completion, so re-reading in a second
	// pass is race-free only because our benches join implicitly. Here we
	// simply check no fault occurs in any variant and cycle accounting
	// sees multiple threads.
	for _, v := range AllVariants() {
		res := runSrc(t, v, nil, src)
		if res.Machine == nil || len(res.Machine.Threads) != 5 {
			t.Errorf("[%v] expected 5 threads", v)
		}
	}
}

// TestE2EIntegerConversions pins C's integer-conversion semantics: every
// integer register holds its C type's value, so narrowing casts, signed
// narrow overflow, unsigned wraparound in ++/--, and unary - and ~ on
// promoted operands give what C gives, under Base and both checked
// variants (which must also pass ConfVerify). Each case's body leaves its
// result in r.
func TestE2EIntegerConversions(t *testing.T) {
	cases := []struct {
		name, body string
		want       int64
	}{
		{"int from a long literal is negative", `int x = (int)-4294967297; r = x < 0;`, 1},
		{"int from long variable is negative", `long m = -1; int x = (int)m; r = x < 0;`, 1},
		{"char 200 is negative", `char c = 200; r = c < 0;`, 1},
		{"unsigned ++ wraps to 0", `unsigned u = 4294967295; u++; r = u == 0;`, 1},
		{"unsigned global pre-increment wraps", `gu = 4294967295; r = ++gu == 0;`, 1},
		{"unsigned -- wraps to UINT_MAX", `unsigned v = 0; v--; r = v / 2;`, 2147483647},
		{"char ++ wraps to -128", `char c = 127; c++; r = c;`, -128},
		{"negate promotes char", `char c = -128; long x = -c; r = x;`, 128},
		{"complement promotes unsigned char", `unsigned char uc = 1; long y = ~uc; r = y;`, -2},
		{"complement of unsigned char converts as int", `unsigned char uc = 1; unsigned u = ~uc; r = u;`, 4294967294},
		{"negate of unsigned char converts as int", `unsigned char b = 1; unsigned v = -b; r = v;`, 4294967295},
		{"negate unsigned wraps", `unsigned w = 5; w = -w; r = w / 2;`, 2147483645},
		{"char cast of 200 widens to -56", `r = (long)(char)200;`, -56},
		{"complement of unsigned 0 widens", `unsigned b = 0; b = ~b; long l = b; r = l;`, 4294967295},
		{"short overflow wraps", `short s = 32767; s = s + 1; r = s;`, -32768},
		{"signed char to unsigned zero-extends", `char c = -1; unsigned u = c; long l = u; r = l;`, 4294967295},
		{"pointer to int truncates", `char *p = (char*)4294967297; int x = (int)p; r = x == 1;`, 1},
		{"narrowing store keeps low byte", `char buf[4]; long big = 511; buf[1] = (char)big; r = buf[1];`, -1},
	}
	for _, tc := range cases {
		src := Source{"conv.c", `
extern void output(long v);
unsigned gu;
int main() {
	long r = 0;
	` + tc.body + `
	output(r);
	return 0;
}
`}
		for _, v := range []Variant{VariantBase, VariantMPX, VariantSeg} {
			art, err := Compile(Program{Sources: []Source{src}}, v)
			if err != nil {
				t.Fatalf("%s [%v]: compile: %v", tc.name, v, err)
			}
			if v.Checked() {
				if err := Verify(art); err != nil {
					t.Errorf("%s [%v]: verify: %v", tc.name, v, err)
				}
			}
			res, err := Run(art, nil, nil)
			if err != nil || res.Fault != nil {
				t.Fatalf("%s [%v]: run: %v %v", tc.name, v, err, res.Fault)
			}
			if len(res.Outputs) != 1 || res.Outputs[0] != tc.want {
				t.Errorf("%s [%v]: got %v, want %d", tc.name, v, res.Outputs, tc.want)
			}
		}
	}
}

// TestE2EVoidValue: a void call used as a value is a compile error under
// every variant, not a panic in a later stage. An expression statement,
// a for loop's post expression and a cast to void may still discard one.
func TestE2EVoidValue(t *testing.T) {
	bad := []string{
		`extern void output(long); int main(){ long a = 1 + output(0); output(a); return 0; }`,
		`extern void output(long); int main(){ long a = output(0); return 0; }`,
		`extern void output(long); int main(){ if (output(0)) return 1; return 0; }`,
		`extern void output(long); int main(){ output(output(0)); return 0; }`,
	}
	good := Source{"ok.c", `extern void output(long);
int main() { int i; output(1); (void)output(2); for (i = 0; i < 1; output(3)) i++; return 0; }`}
	for _, v := range AllVariants() {
		for _, src := range bad {
			_, err := Compile(Program{Sources: []Source{{"void.c", src}}}, v)
			if err == nil || !strings.Contains(err.Error(), "void value used as a value") {
				t.Errorf("[%v] %s: got %v, want a void-value error", v, src, err)
			}
		}
		if res := runSrc(t, v, nil, good); !reflect.DeepEqual(res.Outputs, []int64{1, 2, 3}) {
			t.Errorf("[%v] discarded void calls: outputs %v, want [1 2 3]", v, res.Outputs)
		}
	}
}

// TestE2ESelfInitializedLocal: a register-resident local's name enters
// scope after its initializer, so long p = p; reads an outer p, or is an
// undefined-identifier error, instead of a register never written.
// FuzzCompile found the leak this pins (the self-init seed): that
// register shared rcx with a private parameter, which then reached a
// public argument, and the verifier rejected the OurMPX binary.
func TestE2ESelfInitializedLocal(t *testing.T) {
	leak := `extern void output(long);
private long leak(private long x, long a) { long t = a; long p = p; output(p); return a; }
int main() { leak(7, 1); return 0; }`
	for _, v := range AllVariants() {
		_, err := Compile(Program{Sources: []Source{{"self.c", leak}}}, v)
		if err == nil || !strings.Contains(err.Error(), `undefined identifier "p"`) {
			t.Errorf("[%v] got %v, want an undefined-identifier error", v, err)
		}
		src := Source{"outer.c", "long p = 5;\n" + leak}
		art, err := Compile(Program{Sources: []Source{src}}, v)
		if err != nil {
			t.Fatalf("[%v] compile: %v", v, err)
		}
		if v.Checked() {
			if err := Verify(art); err != nil {
				t.Errorf("[%v] verify: %v", v, err)
			}
		}
		if res := runSrc(t, v, nil, src); !reflect.DeepEqual(res.Outputs, []int64{5}) {
			t.Errorf("[%v] outputs %v, want [5]", v, res.Outputs)
		}
	}
}

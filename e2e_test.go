package confllvm

import (
	"bytes"
	"reflect"
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

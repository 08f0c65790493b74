package chaos_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/chaos"
	"confllvm/internal/verify"
)

const testProg = `
extern int send(int fd, char *buf, int size);
extern void read_passwd(char *uname, private char *pass, int size);
extern void encrypt(private char *src, char *dst, int size);
extern void output(long v);

int checksum(char *buf, int n) {
	int i;
	int acc = 0;
	for (i = 0; i < n; i++) acc += buf[i];
	return acc;
}

int main() {
	char uname[8] = "bob";
	private char pw[32];
	char enc[32];
	read_passwd(uname, pw, 32);
	encrypt(pw, enc, 32);
	send(1, enc, 32);
	output(checksum(enc, 32));
	return 0;
}
`

func compile(t *testing.T) *confllvm.Artifact {
	t.Helper()
	art, err := confllvm.Compile(confllvm.Program{
		Sources: []confllvm.Source{{Name: "t.c", Code: testProg}},
	}, confllvm.VariantMPX)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return art
}

// TestDecisionsDeterministic: the injector is stateless — re-querying any
// decision yields the same answer, and the per-request wire schedule is
// independent of query order.
func TestDecisionsDeterministic(t *testing.T) {
	in := chaos.NewInjector(42, 250)
	var first []bool
	for i := uint64(0); i < 200; i++ {
		first = append(first, in.CorruptWire(i))
	}
	// Re-query in reverse order.
	for i := len(first) - 1; i >= 0; i-- {
		if in.CorruptWire(uint64(i)) != first[i] {
			t.Fatalf("CorruptWire(%d) changed across queries", i)
		}
	}
	hits := 0
	for _, b := range first {
		if b {
			hits++
		}
	}
	// 250 per mille over 200 rolls: expect roughly 50; just require the
	// coin is neither stuck-off nor stuck-on.
	if hits == 0 || hits == len(first) {
		t.Fatalf("rate 250/1000 produced %d/%d corruptions", hits, len(first))
	}
	for e := uint64(0); e < 16; e++ {
		if in.FuelBudget(e) != in.FuelBudget(e) {
			t.Fatalf("FuelBudget(%d) unstable", e)
		}
		if b := in.FuelBudget(e); b < 30_000 || b >= 300_000 {
			t.Fatalf("FuelBudget(%d) = %d outside default window", e, b)
		}
	}
}

// TestSeedsIndependent: distinct seeds yield distinct schedules.
func TestSeedsIndependent(t *testing.T) {
	a, b := chaos.NewInjector(1, 500), chaos.NewInjector(2, 500)
	same := true
	for i := uint64(0); i < 256 && same; i++ {
		if a.CorruptWire(i) != b.CorruptWire(i) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 256-roll wire schedules")
	}
}

// TestCorruptPacketPoisonsLengthWord: word-protocol packets get the op
// word forced to the decrypting op and the length dword sign-poisoned;
// the input packet is never mutated.
func TestCorruptPacketPoisonsLengthWord(t *testing.T) {
	in := chaos.NewInjector(7, 1000)
	pkt := make([]byte, 24)
	pkt[0] = 1 // op = get
	orig := append([]byte(nil), pkt...)
	out := in.CorruptPacket(3, pkt)
	if !bytes.Equal(pkt, orig) {
		t.Fatal("CorruptPacket mutated its input")
	}
	if out[0] != 2 {
		t.Fatalf("op word not forced to put: %d", out[0])
	}
	if out[19]&0x80 == 0 {
		t.Fatal("length dword sign bit not set")
	}
	if !bytes.Equal(in.CorruptPacket(3, orig), out) {
		t.Fatal("CorruptPacket not deterministic")
	}
	// Short packets: still corrupted, still pure.
	small := []byte{9, 9}
	if bytes.Equal(in.CorruptPacket(0, small), small) {
		t.Fatal("short packet left untouched")
	}
}

// TestTamperImageRejectedByVerifier: the tampered image must fail
// verification for every epoch seed, and the original image must stay
// byte-identical (metadata shared, code copied). The rejection must be
// about the planted byte: a *verify.Error, identical serial and parallel,
// at the tampered byte (the syscall now at a procedure entry) — or, when
// the seeded function is an exit shim, 8 bytes before it: overwriting the
// shim's exit leaves its MRet word unlegitimized.
func TestTamperImageRejectedByVerifier(t *testing.T) {
	art := compile(t)
	img := art.Image
	origCode := append([]byte(nil), img.Code...)
	if err := verify.Verify(img, verify.Options{}); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	var shims, entries int
	for epoch := uint64(0); epoch < 64; epoch++ {
		mut := chaos.TamperImage(99, epoch, img)
		if mut == nil {
			t.Fatalf("epoch %d: no tamper target", epoch)
		}
		if !bytes.Equal(img.Code, origCode) {
			t.Fatalf("epoch %d: TamperImage mutated the original image", epoch)
		}
		off := -1
		for i := range mut.Code {
			if mut.Code[i] != origCode[i] {
				if off >= 0 {
					t.Fatalf("epoch %d: more than one byte tampered", epoch)
				}
				off = i
			}
		}
		if off < 0 {
			t.Fatalf("epoch %d: no byte tampered", epoch)
		}

		serr := verify.Verify(mut, verify.Options{})
		var sv *verify.Error
		if !errors.As(serr, &sv) {
			t.Fatalf("epoch %d: want a *verify.Error, got %v", epoch, serr)
		}
		perr := verify.Verify(mut, verify.Options{Parallel: 8})
		var pv *verify.Error
		if !errors.As(perr, &pv) || *pv != *sv {
			t.Fatalf("epoch %d: parallel verdict %v differs from serial %v", epoch, perr, serr)
		}
		switch {
		case sv.Off == off && strings.Contains(sv.Msg, "syscall"):
			entries++
		case sv.Off == off-8 && sv.Msg == "stray MRet magic word":
			shims++
		default:
			t.Errorf("epoch %d: tampered byte %#x, rejected for %v", epoch, off, sv)
		}
	}
	// Both rejection paths must be exercised, or the test pins only one.
	if shims == 0 || entries == 0 {
		t.Errorf("%d entry and %d exit-shim rejections, want both kinds", entries, shims)
	}
}

// TestCodeBombSiteStable: the bomb site is a stable function entry inside
// the code region.
func TestCodeBombSiteStable(t *testing.T) {
	art := compile(t)
	in := chaos.NewInjector(5, 1000)
	for epoch := uint64(0); epoch < 8; epoch++ {
		a1, ok1 := in.CodeBombSite(epoch, art.Image)
		a2, ok2 := in.CodeBombSite(epoch, art.Image)
		if !ok1 || !ok2 || a1 != a2 {
			t.Fatalf("epoch %d: unstable site (%#x,%v) vs (%#x,%v)", epoch, a1, ok1, a2, ok2)
		}
		off := a1 - art.Image.Layout.CodeBase
		if off >= uint64(len(art.Image.Code)) {
			t.Fatalf("epoch %d: site %#x outside code", epoch, a1)
		}
	}
}

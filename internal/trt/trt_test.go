package trt_test

import (
	"bytes"
	"testing"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/trt"
)

func TestCipherRoundtrip(t *testing.T) {
	data := []byte("attack at dawn \x00\x01\x02")
	enc := trt.EncryptWithDefaultKey(data)
	if bytes.Equal(enc, data) {
		t.Fatal("ciphertext equals plaintext")
	}
	for i := range enc {
		if enc[i] == data[i] {
			t.Fatalf("byte %d unchanged by the cipher", i)
		}
	}
	// Round-trip through a context (decrypt is the inverse).
	art, err := confllvm.Compile(confllvm.Program{Sources: []confllvm.Source{
		{Name: "n.c", Code: "int main() { return 0; }"},
	}}, confllvm.VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	res, err := confllvm.Run(art, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TCtx.DecryptBytes(enc); !bytes.Equal(got, data) {
		t.Fatalf("decrypt(encrypt(x)) = %q, want %q", got, data)
	}
}

// TestWrapperRangeChecks drives each buffer-taking handler with a pointer
// into the wrong region and expects the trusted wrapper to reject it.
func TestWrapperRangeChecks(t *testing.T) {
	src := `
extern int send(int fd, char *buf, int size);
extern void read_passwd(char *uname, private char *pass, int size);
int main() {
	char u[4];
	u[0] = 'u'; u[1] = 0;
	private char secret[32];
	read_passwd(u, secret, 32);
	/* wrong region: send expects a public buffer */
	send(1, (char*)(void*)secret, 32);
	return 0;
}
`
	art, err := confllvm.Compile(confllvm.Program{Sources: []confllvm.Source{
		{Name: "w.c", Code: src},
	}}, confllvm.VariantMPX)
	if err != nil {
		t.Fatal(err)
	}
	w := confllvm.NewWorld()
	w.Passwords["u"] = []byte("pw")
	res, err := confllvm.Run(art, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil {
		t.Fatal("wrapper accepted a private buffer at a public parameter")
	}
	if len(res.NetOut) != 0 {
		t.Fatal("data reached the network despite the rejection")
	}
}

// TestWrapperCountsCost: U->T transitions are charged, and the Our1Mem
// ablation charges less.
func TestWrapperCountsCost(t *testing.T) {
	src := `
extern void output(long v);
int main() {
	int i;
	for (i = 0; i < 50; i++) output(i);
	return 0;
}
`
	run := func(v confllvm.Variant) uint64 {
		art, err := confllvm.Compile(confllvm.Program{Sources: []confllvm.Source{
			{Name: "c.c", Code: src}}}, v)
		if err != nil {
			t.Fatal(err)
		}
		res, err := confllvm.Run(art, nil, nil)
		if err != nil || res.Fault != nil {
			t.Fatalf("%v %v", err, res.Fault)
		}
		if res.Stats.TrustedCall != 50 {
			t.Fatalf("[%v] %d trusted calls, want 50", v, res.Stats.TrustedCall)
		}
		return res.Stats.Cycles
	}
	sep := run(confllvm.VariantBare)
	one := run(confllvm.VariantOneMem)
	if sep <= one {
		t.Fatalf("memory separation must cost more per T call: sep=%d one=%d", sep, one)
	}
}

// TestMallocPrivHugeSizeFaults: a size that used to wrap the private
// allocator (2^64-1 rounds to a zero-size chunk; 2^64-1GiB+1 pulls the
// cursor down into the public region) must be rejected by the malloc_priv
// wrapper as a trusted-wrapper fault.
func TestMallocPrivHugeSizeFaults(t *testing.T) {
	for _, size := range []string{"-1", "-1073741823"} {
		src := `
extern private void *malloc_priv(long size);
int main() {
	private char *p = (private char*)malloc_priv(` + size + `);
	private char *q = (private char*)malloc_priv(16);
	return 0;
}
`
		art, err := confllvm.Compile(confllvm.Program{Sources: []confllvm.Source{
			{Name: "m.c", Code: src},
		}}, confllvm.VariantMPX)
		if err != nil {
			t.Fatal(err)
		}
		res, err := confllvm.Run(art, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault == nil || res.Fault.Kind != machine.FaultTrusted {
			t.Fatalf("malloc_priv(%s): fault = %v, want a trusted-wrapper fault", size, res.Fault)
		}
	}
}

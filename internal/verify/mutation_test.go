package verify_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/verify"
	"confllvm/internal/verify/verifymut"
)

// mutationCorpus is the built-in set of programs the mutation harness
// compiles into real linked images. Each exercises different
// instrumentation: privateProg carries private scalars through argument
// registers, an indirect call and the trusted externs (the crafted
// program every mutator fires on; its pw[2] = pw[3] is the GS load -> GS
// store site seg-store-public needs once no private value spills);
// serverProg is a recv/send loop like
// the scenario servers (calls, frames, private buffers).
var mutationCorpus = []struct {
	name string
	src  string
}{
	{"crafted", `
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

private int sq(private int x) { return x * x; }

int (*fns[1])(char*, int) = { checksum };

int main() {
	char uname[8] = "bob";
	private char pw[32];
	char enc[32];
	read_passwd(uname, pw, 32);
	pw[1] = (char)sq(pw[0]);
	pw[2] = pw[3];
	encrypt(pw, enc, 32);
	send(1, enc, 32);
	output(fns[0](enc, 32));
	return 0;
}
`},
	{"server", `
extern int recv(int fd, private char *buf, int size);
extern int send(int fd, char *buf, int size);
extern void encrypt(private char *src, char *dst, int size);
extern void output(long v);

private long mix(private char *buf, int n) {
	int i;
	private long h = 7;
	for (i = 0; i < n; i++) h = h * 31 + buf[i];
	return h;
}

int main() {
	private char req[64];
	char rsp[64];
	long total = 0;
	int n;
	int round;
	for (round = 0; round < 4; round++) {
		n = recv(0, req, 64);
		if (n <= 0) break;
		req[0] = (char)mix(req, n);
		encrypt(req, rsp, n);
		total += send(1, rsp, n);
	}
	output(total);
	return 0;
}
`},
}

// mutationSeed fixes the harness's site selection; the corpus and its
// kill verdicts are deterministic.
const mutationSeed = 0x5eedbeef

// corpusImages compiles the corpus for both deployable schemes.
func corpusImages(t testing.TB) []struct {
	name string
	art  *confllvm.Artifact
} {
	t.Helper()
	var out []struct {
		name string
		art  *confllvm.Artifact
	}
	for _, c := range mutationCorpus {
		for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
			art, err := confllvm.Compile(confllvm.Program{
				Sources: []confllvm.Source{{Name: c.name + ".c", Code: c.src}},
			}, v)
			if err != nil {
				t.Fatalf("compile %s [%v]: %v", c.name, v, err)
			}
			if err := verify.Verify(art.Image, verify.Options{}); err != nil {
				t.Fatalf("pristine %s [%v] must verify: %v", c.name, v, err)
			}
			out = append(out, struct {
				name string
				art  *confllvm.Artifact
			}{fmt.Sprintf("%s/%v", c.name, v), art})
		}
	}
	return out
}

// TestMutationKillRate is the mutation-killing scoreboard: every mutant
// verifymut lowers into the corpus must be rejected with a structured
// verify.Error at the offset the mutator pinned, under both the serial
// and the parallel verifier. Anything under a 100% kill rate fails —
// a surviving mutant is a verifier hole, not a statistic.
func TestMutationKillRate(t *testing.T) {
	images := corpusImages(t)

	total, killed := 0, 0
	perMutator := map[string]int{}
	for _, img := range images {
		muts := verifymut.Generate(img.art.Image, mutationSeed)
		if len(muts) == 0 {
			t.Errorf("%s: no applicable mutants", img.name)
		}
		for _, m := range muts {
			total++
			perMutator[m.Mutator]++
			name := img.name + "/" + m.Name

			err := verify.Verify(m.Image, verify.Options{})
			if err == nil {
				t.Errorf("SURVIVED %s: mutant passed verification", name)
				continue
			}
			var verr *verify.Error
			if !errors.As(err, &verr) {
				t.Errorf("%s: rejection is not a structured verify.Error: %v", name, err)
				continue
			}
			okOff := false
			for _, w := range m.WantOffs {
				if verr.Off == w {
					okOff = true
				}
			}
			if !okOff {
				t.Errorf("%s: rejected at %#x, want one of %#x: %s",
					name, verr.Off, m.WantOffs, verr.Msg)
				continue
			}
			if !strings.Contains(verr.Msg, m.WantMsg) {
				t.Errorf("%s: rejected with %q, want substring %q", name, verr.Msg, m.WantMsg)
				continue
			}

			// The parallel verifier must report the identical error.
			perr := verify.Verify(m.Image, verify.Options{Parallel: 8})
			var pverr *verify.Error
			if !errors.As(perr, &pverr) || *pverr != *verr {
				t.Errorf("%s: parallel verdict %v differs from serial %v", name, perr, err)
				continue
			}
			killed++
		}
	}

	// Every operator in the corpus must fire at least once somewhere —
	// an operator that never applies is dead weight, or a signal that
	// the corpus lost the shape it needs.
	for _, m := range verifymut.Mutators() {
		if perMutator[m.Name] == 0 {
			t.Errorf("mutator %s never produced a mutant on the corpus", m.Name)
		}
	}

	rate := 0.0
	if total > 0 {
		rate = float64(killed) / float64(total) * 100
	}
	t.Logf("mutation scoreboard: %d/%d killed (%.1f%%) across %d operators",
		killed, total, rate, len(perMutator))
	if killed != total {
		t.Fatalf("kill rate %.1f%% < 100%%: %d mutants survived or misreported",
			rate, total-killed)
	}
}

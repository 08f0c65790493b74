// Randomized differential fuzzing: seeded, deterministic miniC programs
// are generated, compiled through the full pipeline under every variant,
// and executed under per-instruction stepping and chained superblock
// dispatch (see diffRun); every variant must then agree on what the
// program observably did. The generator leans on control-flow shapes —
// nested ifs, bounded loops, calls — because block boundaries and branch
// edges are exactly where superblock dispatch and direct block chaining
// can diverge from per-instruction stepping; it keeps more locals live
// across a loop than there are registers, so the allocator's eviction
// runs; it emits occasional unguarded divisions so divide-fault
// delivery is fuzzed too; and it wraps subexpressions in narrowing casts,
// so every variant's lowering of them is compared.
package machine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/bench"
	"confllvm/internal/link"
	"confllvm/internal/machine"
)

// progGen builds one random-but-valid miniC program.
type progGen struct {
	r      *rand.Rand
	nFuncs int
}

const (
	fuzzGlobals = 4
	fuzzLocals  = 12 // with acc and the counters, more than the 12 allocatable GPRs
	fuzzArrLen  = 32
)

// narrowCasts are the casts expr wraps around a subexpression.
var narrowCasts = []string{"(int)", "(short)", "(char)", "(unsigned int)"}

// expr emits a depth-bounded integer expression over the in-scope names.
func (g *progGen) expr(depth, fn int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return fmt.Sprintf("%d", g.r.Int63n(2001)-1000)
		case 1:
			return fmt.Sprintf("%d", g.r.Int63()-g.r.Int63()) // wide constants
		case 2:
			return fmt.Sprintf("g%d", g.r.Intn(fuzzGlobals))
		case 3:
			return fmt.Sprintf("l%d", g.r.Intn(fuzzLocals))
		default:
			return fmt.Sprintf("arr[(%s) & %d]", g.expr(0, fn), fuzzArrLen-1)
		}
	}
	a := g.expr(depth-1, fn)
	b := g.expr(depth-1, fn)
	switch g.r.Intn(13) {
	case 0:
		return "(" + a + " + " + b + ")"
	case 1:
		return "(" + a + " - " + b + ")"
	case 2:
		return "(" + a + " * " + b + ")"
	case 3:
		return "(" + a + " & " + b + ")"
	case 4:
		return "(" + a + " | " + b + ")"
	case 5:
		return "(" + a + " ^ " + b + ")"
	case 6:
		return "(" + a + " << ((" + b + ") & 15))"
	case 7:
		return "(" + a + " >> ((" + b + ") & 15))"
	case 8:
		// Guarded division: the divisor is always in [1, 8].
		return "(" + a + " / (((" + b + ") & 7) + 1))"
	case 9:
		if g.r.Intn(8) == 0 {
			// Rarely, an unguarded division: may fault — which both
			// dispatch modes must report identically.
			return "(" + a + " % " + b + ")"
		}
		return "(" + a + " % (((" + b + ") & 7) + 1))"
	case 10:
		return "(" + a + " < " + b + ")"
	case 11:
		// A narrowing cast: its trunc canonicalizes the value for the
		// long arithmetic around it (sign-extended or zero-extended).
		return narrowCasts[g.r.Intn(len(narrowCasts))] + "(" + a + ")"
	default:
		if fn > 0 {
			return fmt.Sprintf("f%d(%s, %s)", g.r.Intn(fn), a, b)
		}
		return "(" + a + " == " + b + ")"
	}
}

// stmts emits up to n statements; fn bounds which functions may be called
// (callees are always lower-numbered, so there is no recursion), and lv
// is the loop-nesting level (used to pick distinct counter names).
func (g *progGen) stmts(b *strings.Builder, n, depth, fn, lv int) {
	for i := 0; i < n; i++ {
		switch g.r.Intn(7) {
		case 0, 1:
			fmt.Fprintf(b, "l%d = %s;\n", g.r.Intn(fuzzLocals), g.expr(depth, fn))
		case 2:
			fmt.Fprintf(b, "g%d = %s;\n", g.r.Intn(fuzzGlobals), g.expr(depth, fn))
		case 3:
			fmt.Fprintf(b, "arr[(%s) & %d] = %s;\n", g.expr(1, fn), fuzzArrLen-1, g.expr(depth, fn))
		case 4:
			fmt.Fprintf(b, "if (%s) {\n", g.expr(depth, fn))
			g.stmts(b, 1+g.r.Intn(2), depth-1, fn, lv)
			if g.r.Intn(2) == 0 {
				b.WriteString("} else {\n")
				g.stmts(b, 1+g.r.Intn(2), depth-1, fn, lv)
			}
			b.WriteString("}\n")
		case 5:
			if lv >= 2 {
				fmt.Fprintf(b, "acc = acc + %s;\n", g.expr(depth, fn))
				continue
			}
			g.loop(b, depth, fn, lv)
		default:
			fmt.Fprintf(b, "acc = acc + %s;\n", g.expr(depth, fn))
		}
	}
}

// loop emits a bounded countdown loop with a dedicated counter.
func (g *progGen) loop(b *strings.Builder, depth, fn, lv int) {
	fmt.Fprintf(b, "i%d = (%s) & 15;\n", lv, g.expr(1, fn))
	fmt.Fprintf(b, "while (i%d > 0) {\n", lv)
	g.stmts(b, 1+g.r.Intn(2), depth-1, fn, lv+1)
	fmt.Fprintf(b, "i%d = i%d - 1;\n}\n", lv, lv)
}

// body emits a function body's statements: n random ones, then a loop,
// then a sum of every local, so all of them are live across the loop.
func (g *progGen) body(b *strings.Builder, n, depth, fn int) {
	g.stmts(b, n, depth, fn, 0)
	g.loop(b, depth, fn, 0)
	b.WriteString("acc = acc")
	for i := 0; i < fuzzLocals; i++ {
		fmt.Fprintf(b, " + l%d", i)
	}
	b.WriteString(";\n")
}

func (g *progGen) fn(b *strings.Builder, idx int) {
	fmt.Fprintf(b, "long f%d(long a, long b) {\n", idx)
	b.WriteString("long acc = a + b;\nlong i0 = 0;\nlong i1 = 0;\n")
	for i := 0; i < fuzzLocals; i++ {
		fmt.Fprintf(b, "long l%d = %d;\n", i, g.r.Int63n(100))
	}
	g.body(b, 2+g.r.Intn(3), 2, idx)
	b.WriteString("return acc;\n}\n\n")
}

// generate produces one complete translation unit.
func (g *progGen) generate() string {
	var b strings.Builder
	b.WriteString("extern void output(long v);\n\n")
	for i := 0; i < fuzzGlobals; i++ {
		fmt.Fprintf(&b, "long g%d = %d;\n", i, g.r.Int63n(1000))
	}
	fmt.Fprintf(&b, "long arr[%d];\n\n", fuzzArrLen)
	for i := 0; i < g.nFuncs; i++ {
		g.fn(&b, i)
	}
	b.WriteString("int main() {\n")
	b.WriteString("long acc = 0;\nlong i0 = 0;\nlong i1 = 0;\n")
	for i := 0; i < fuzzLocals; i++ {
		fmt.Fprintf(&b, "long l%d = %d;\n", i, g.r.Int63n(50))
	}
	g.body(&b, 4+g.r.Intn(4), 3, g.nFuncs)
	b.WriteString("output(acc);\n")
	for i := 0; i < fuzzGlobals; i++ {
		fmt.Fprintf(&b, "output(g%d);\n", i)
	}
	b.WriteString("output(arr[7]);\nreturn 0;\n}\n")
	return b.String()
}

// TestFuzzDifferential compiles each seeded random program under every
// variant and differentially executes both dispatch modes of each image.
// The variants must agree on outputs, exit code and fault kind:
// instrumentation never changes program semantics. The log counts the
// images whose register pools overflowed (spill-slot traffic), which is
// when the allocator's eviction rule runs. Failures reproduce from the
// seed in the subtest name.
func TestFuzzDifferential(t *testing.T) {
	nProgs := 48
	if testing.Short() {
		nProgs = 10
	}
	var images, spilling atomic.Int64
	t.Cleanup(func() {
		t.Logf("%d of %d images spill under register pressure", spilling.Load(), images.Load())
		if spilling.Load() == 0 && !t.Failed() {
			t.Error("no generated image overflowed the register pools")
		}
	})
	for seed := 0; seed < nProgs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel() // each seed compiles and runs its own program end to end
			g := &progGen{r: rand.New(rand.NewSource(int64(seed)*7919 + 17)), nFuncs: 1 + seed%3}
			src := g.generate()
			var ref *confllvm.Result
			for i, v := range confllvm.AllVariants() {
				art, err := confllvm.Compile(confllvm.Program{
					Sources: []confllvm.Source{
						{Name: "fuzz.c", Code: src},
						{Name: "ulib.c", Code: bench.ULib},
					},
				}, v)
				if err != nil {
					t.Fatalf("generated program failed to compile under %v:\n%s\nerror: %v", v, src, err)
				}
				images.Add(1)
				if spillOps(art.Image, g.nFuncs) > 0 {
					spilling.Add(1)
				}
				res := diffRun(t, art, confllvm.NewWorld, nil)
				t.Logf("seed %d [%v]: %d instrs, fault=%v", seed, v, res.Stats.Instrs, res.Fault)
				if res.Fault != nil && res.Fault.Kind != machine.FaultDivide {
					t.Fatalf("unexpected fault kind under %v (still mode-identical): %v\nprogram:\n%s",
						v, res.Fault, src)
				}
				if ref == nil {
					ref = res
				} else if !slices.Equal(res.Outputs, ref.Outputs) || res.ExitCode != ref.ExitCode ||
					(res.Fault == nil) != (ref.Fault == nil) || res.Fault != nil && res.Fault.Kind != ref.Fault.Kind {
					t.Fatalf("%v diverges from %v: outputs %v vs %v, exit %d vs %d, fault %v vs %v\nprogram:\n%s",
						v, confllvm.AllVariants()[0], res.Outputs, ref.Outputs, res.ExitCode, ref.ExitCode,
						res.Fault, ref.Fault, src)
				}
				// Every few seeds, re-run one variant with the instruction
				// budget cut to a point inside the program, so the fuel fault
				// lands at a fuzzed position (often mid-superblock).
				if seed%3 == 0 && i == seed%len(confllvm.AllVariants()) && res.Stats.Instrs > 20 {
					c := machine.DefaultConfig()
					c.DefaultFuel = res.Stats.Instrs/2 + uint64(seed%7)
					cut := diffRun(t, art, confllvm.NewWorld, &c)
					if cut.Fault == nil {
						t.Fatalf("fuel cutoff at %d of %d instrs did not fault",
							c.DefaultFuel, res.Stats.Instrs)
					}
				}
			}
		})
	}
}

// spillOps counts the rsp-relative loads and stores in the generated
// functions (f0..f<nFuncs-1> and main). Those take two or fewer
// arguments and address locals through registers, so every such access
// is spill-slot traffic.
func spillOps(img *link.Image, nFuncs int) int {
	gen := map[string]bool{"main": true}
	for i := 0; i < nFuncs; i++ {
		gen[fmt.Sprintf("f%d", i)] = true
	}
	n := 0
	for _, fs := range img.Funcs {
		if !gen[fs.Name] {
			continue
		}
		for _, addr := range instAddrs(img, fs) {
			in, _, err := asm.Decode(img.Code, int(addr-img.Layout.CodeBase))
			if err != nil {
				continue
			}
			switch in.Op {
			case asm.OpLoad, asm.OpStore, asm.OpFLoad, asm.OpFStore:
				if in.M.Base == asm.RSP {
					n++
				}
			}
		}
	}
	return n
}

// TestFuzzDifferentialBoundsFaults drives seeded wild accesses — far past
// the array on either side — through the MPX configuration: every run
// must raise a bounds fault, and the fault's kind, address, PC, partial
// state and memory digest must be identical across per-instruction
// stepping and chained superblock dispatch. This is the
// adversarial-input half of the fault-path diff: the instrumentation
// itself is what faults, at a PC the dispatch layers reach differently.
func TestFuzzDifferentialBoundsFaults(t *testing.T) {
	nSeeds := 12
	if testing.Short() {
		nSeeds = 4
	}
	for seed := 0; seed < nSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*6007 + 11))
			// A seeded wild index: far above the public region, or negative.
			idx := int64(1<<37) + r.Int63n(1<<37)
			if seed%2 == 1 {
				idx = -(1 + r.Int63n(1<<20))
			}
			// Warm the array first so the fault interrupts a program with
			// real partial state (digests must still agree mid-flight).
			src := fmt.Sprintf(`
extern void output(long v);
long arr[%d];
int main() {
	long i;
	for (i = 0; i < %d; i++) arr[i & %d] = i * 3;
	arr[%d] = 7;
	output(arr[3]);
	return 0;
}
`, fuzzArrLen, 10+r.Int63n(40), fuzzArrLen-1, idx)
			art, err := confllvm.Compile(confllvm.Program{
				Sources: []confllvm.Source{{Name: "wild.c", Code: src}},
			}, confllvm.VariantMPX)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, src)
			}
			res := diffRun(t, art, confllvm.NewWorld, nil)
			if res.Fault == nil || res.Fault.Kind != machine.FaultBounds {
				t.Fatalf("index %d: want a bounds fault, got %v", idx, res.Fault)
			}
		})
	}
}

// diffRunCorrupt mirrors diffRun for post-load code corruption: each
// dispatch mode loads the same pristine artifact, has one code byte
// overwritten with an invalid opcode at addr before execution, and runs.
// Fault traces (kind, PC, message), partial state and memory digests must
// agree across modes — superblock caches and chain links must not let a
// mode run stale pre-corruption bytes.
func diffRunCorrupt(t *testing.T, art *confllvm.Artifact, addr uint64) *confllvm.Result {
	t.Helper()
	run := func(mc *machine.Config) *confllvm.Result {
		p, err := confllvm.Prepare(art, confllvm.NewWorld(), mc)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if f := p.Machine().Mem.WriteBytesUnchecked(addr, []byte{0xFF}); f != nil {
			t.Fatalf("corrupting code at %#x: %v", addr, f)
		}
		return p.Finish()
	}
	mcStep := machine.DefaultConfig()
	mcStep.Superblocks = false
	ref := run(&mcStep)
	mc := machine.DefaultConfig()
	compareResults(t, ref, run(&mc))
	return ref
}

// instAddrs walks a function's body (skipping embedded magic words) and
// returns the address of every instruction boundary.
func instAddrs(img *link.Image, fs *link.FuncSym) []uint64 {
	magic := img.MagicOffsets()
	off := int(fs.Entry - img.Layout.CodeBase)
	end := int(fs.Base-img.Layout.CodeBase) + int(fs.Size)
	var addrs []uint64
	for off < end {
		if magic[off] {
			off += 8
			continue
		}
		_, n, err := asm.Decode(img.Code, off)
		if err != nil {
			break
		}
		addrs = append(addrs, img.Layout.CodeBase+uint64(off))
		off += n
	}
	return addrs
}

// TestFuzzDifferentialDecodeFaults plants an invalid opcode at a seeded
// instruction boundary inside main of a seeded fuzz program and diffs the
// execution across all dispatch modes. Corruption on the executed path
// must raise FaultDecode at the same PC with the same digest everywhere;
// corruption on a cold path must leave all modes running to the same
// clean completion. Across the seed set, at least one bomb must land hot
// (otherwise the test is vacuous).
func TestFuzzDifferentialDecodeFaults(t *testing.T) {
	nSeeds := 12
	if testing.Short() {
		nSeeds = 4
	}
	hot := 0
	for seed := 0; seed < nSeeds; seed++ {
		g := &progGen{r: rand.New(rand.NewSource(int64(seed)*4241 + 5)), nFuncs: 1 + seed%2}
		src := g.generate()
		art, err := confllvm.Compile(confllvm.Program{
			Sources: []confllvm.Source{
				{Name: "fuzz.c", Code: src},
				{Name: "ulib.c", Code: bench.ULib},
			},
		}, confllvm.VariantMPX)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		addrs := instAddrs(art.Image, art.Image.Func("main"))
		if len(addrs) == 0 {
			t.Fatalf("seed %d: no instruction boundaries in main", seed)
		}
		addr := addrs[rand.New(rand.NewSource(int64(seed)+99)).Intn(len(addrs))]
		res := diffRunCorrupt(t, art, addr)
		if res.Fault != nil {
			if res.Fault.Kind != machine.FaultDecode && res.Fault.Kind != machine.FaultDivide {
				t.Fatalf("seed %d: corrupting %#x: unexpected fault kind %v", seed, addr, res.Fault)
			}
			if res.Fault.Kind == machine.FaultDecode {
				hot++
			}
		}
	}
	if hot == 0 {
		t.Fatalf("no decode bomb landed on an executed instruction across %d seeds", nSeeds)
	}
	t.Logf("%d/%d decode bombs were execution-visible", hot, nSeeds)
}

// TestFuzzDifferentialFuelAtBoundaries cuts the instruction budget of
// seeded fuzz programs at seeded fractions of their run length, so fuel
// faults land at arbitrary alignments relative to superblock and chain
// boundaries. Every cut must fault with FaultFuel, identically in all
// dispatch modes.
func TestFuzzDifferentialFuelAtBoundaries(t *testing.T) {
	nSeeds := 6
	if testing.Short() {
		nSeeds = 2
	}
	for seed := 0; seed < nSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			g := &progGen{r: rand.New(rand.NewSource(int64(seed)*911 + 3)), nFuncs: 1 + seed%3}
			src := g.generate()
			art, err := confllvm.Compile(confllvm.Program{
				Sources: []confllvm.Source{
					{Name: "fuzz.c", Code: src},
					{Name: "ulib.c", Code: bench.ULib},
				},
			}, confllvm.VariantMPX)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			clean := diffRun(t, art, confllvm.NewWorld, nil)
			if clean.Fault != nil || clean.Stats.Instrs < 16 {
				t.Skipf("seed unusable for fuel cuts: fault=%v instrs=%d",
					clean.Fault, clean.Stats.Instrs)
			}
			r := rand.New(rand.NewSource(int64(seed)*13 + 7))
			for _, quarter := range []uint64{1, 2, 3} {
				fuel := clean.Stats.Instrs*quarter/4 + uint64(r.Intn(9)) - 4
				if fuel == 0 || fuel >= clean.Stats.Instrs {
					continue
				}
				mc := machine.DefaultConfig()
				mc.DefaultFuel = fuel
				cut := diffRun(t, art, confllvm.NewWorld, &mc)
				if cut.Fault == nil || cut.Fault.Kind != machine.FaultFuel {
					t.Fatalf("fuel cut at %d of %d: want FaultFuel, got %v",
						fuel, clean.Stats.Instrs, cut.Fault)
				}
			}
		})
	}
}

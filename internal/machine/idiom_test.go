package machine

import (
	"testing"

	"confllvm/internal/asm"
)

// Stepping-versus-block parity on the instruction idioms hot compiled
// loops are made of: sub/cmp/jcc loop heads, runs of register ALU ops,
// load/op/store read-modify-writes and MPX check+access pairs. The
// programs were first written for a superinstruction fuser this package
// no longer has, and the test names keep its vocabulary. They stay
// because they put fuel bites on every slot of those sequences, faults
// inside them, and a trusted handler in the middle of one, and block
// dispatch must get each of those exactly as stepping does.

// idiomLoop builds a countdown loop whose body contains the given
// instructions followed by the sub/cmp/jcc tail, iterating iters times.
func idiomLoop(body []asm.Inst, iters int64) []asm.Inst {
	pre := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100100},
		{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters},
	}
	loopStart := int64(0x1000)
	for _, in := range pre {
		loopStart += encodeLen(in)
	}
	insts := append(pre, body...)
	return append(insts,
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
}

// idiomProgram is one bite-matrix workload: a loop whose body is one
// idiom, closed by the sub/cmp/jcc tail idiomLoop appends.
type idiomProgram struct {
	name  string
	body  []asm.Inst
	setup func(*Thread)
}

func idiomPrograms() []idiomProgram {
	wideBnd := func(th *Thread) {
		th.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x10FFFF}
	}
	return []idiomProgram{
		// One add before the sub/cmp/jcc loop head.
		{name: "alu-cmp-jcc", body: []asm.Inst{
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		}},
		// A bare cmp/jcc pair opening the loop-body block.
		{name: "cmp-jcc", body: []asm.Inst{
			{Op: asm.OpCmpRI, Dst: asm.RDX, Imm: 1 << 40},
			{Op: asm.OpJcc, Cond: asm.CondE, Imm: 0x1000}, // never taken
		}},
		// A run of register ALU ops broken off from the tail by a load.
		{name: "alu-pack", body: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
			{Op: asm.OpXorRR, Dst: asm.RDX, Src: asm.RAX},
			{Op: asm.OpShlRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpLoad, Dst: asm.RSI, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		}},
		// A load/alu/store read-modify-write triple.
		{name: "load-op-store", body: []asm.Inst{
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 7},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
		// MPX check+load and check+store pairs.
		{name: "chk-load-store", setup: wideBnd, body: []asm.Inst{
			{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
	}
}

// TestFuseBiteMatrix lands fuel bites on every slot of every idiom loop.
// Fuels 1..2*body+4 cut at each slot across the first two loop
// iterations; the quantum-straddling fuels catch bites induced by
// scheduling boundaries deep into the run.
func TestFuseBiteMatrix(t *testing.T) {
	for _, p := range idiomPrograms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			insts := idiomLoop(p.body, 1<<40) // effectively infinite: every run fuel-faults
			sweep := 2*(len(p.body)+3) + 4
			fuels := make([]uint64, 0, sweep+4)
			for f := 1; f <= sweep; f++ {
				fuels = append(fuels, uint64(f))
			}
			fuels = append(fuels, 1023, 1024, 1025, 4097)
			for _, fuel := range fuels {
				runParity(t, insts, fuel, p.setup)
			}
		})
	}
}

// TestFuseCompletionParity runs each idiom loop to completion (no fuel
// cut).
func TestFuseCompletionParity(t *testing.T) {
	for _, p := range idiomPrograms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			runParity(t, idiomLoop(p.body, 64), 0, p.setup)
		})
	}
}

// TestFuseFaultInsideIdiom places a fault on each faultable instruction
// of the read-modify-write and check+access idioms — the load, the
// store, and the bound check — and requires the fault's kind, address,
// PC, message, and all partial state to match per-instruction stepping.
func TestFuseFaultInsideIdiom(t *testing.T) {
	wideBnd := func(th *Thread) {
		th.Bnd[asm.BND0] = BndRange{Lo: 0, Hi: ^uint64(0)}
	}
	narrowBnd := func(th *Thread) {
		th.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x100010}
	}
	cases := []struct {
		name  string
		insts []asm.Inst
		setup func(*Thread)
		kind  FaultKind
	}{
		// load/alu/store: the load faults.
		{name: "rmw-load-faults", kind: FaultUnmapped, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000}, // unmapped
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
		// load/alu/store: the store faults — the load and alu results
		// must be retained in the partial state.
		{name: "rmw-store-faults", kind: FaultUnmapped, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100100},
			{Op: asm.OpMovRI, Dst: asm.RDX, Imm: 0x500000}, // unmapped
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RDX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
		// chk+load: the bound check itself faults.
		{name: "chk-faults", kind: FaultBounds, setup: narrowBnd, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100030}, // above bnd0.upper
			{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		}},
		// chk+load: the check passes and the load faults.
		{name: "chk-load-faults", kind: FaultUnmapped, setup: wideBnd, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000},
			{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		}},
		// chk+store: the check passes and the store faults.
		{name: "chk-store-faults", kind: FaultUnmapped, setup: wideBnd, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000},
			{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			thA := runParity(t, tc.insts, 0, tc.setup)
			if thA.Fault == nil || thA.Fault.Kind != tc.kind {
				t.Fatalf("want %v fault, got %v", tc.kind, thA.Fault)
			}
		})
	}
}

package machine

import (
	"fmt"
	"strings"
	"testing"

	"confllvm/internal/asm"
)

// buildFor encodes insts into a fresh machine with the standard test
// layout, under the given config.
func buildFor(t *testing.T, conf Config, insts []asm.Inst) (*Machine, *Thread) {
	t.Helper()
	m := New(conf)
	var code []byte
	for _, in := range insts {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
	if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		t.Fatal(f)
	}
	th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
	return m, th
}

// stepwiseConf is the reference configuration of every parity check:
// the default cost model under per-instruction stepping.
func stepwiseConf() Config {
	conf := DefaultConfig()
	conf.Superblocks = false
	return conf
}

// runParity runs insts under per-instruction stepping and under the
// default block dispatch (chained superblocks), with an optional fuel
// limit and thread setup hook (for bound registers), and requires
// identical faults and fault messages, registers, PC, flags,
// architectural stats and memory. It returns the stepping thread.
func runParity(t *testing.T, insts []asm.Inst, fuel uint64, setup func(*Thread)) *Thread {
	t.Helper()
	confA := stepwiseConf()
	if fuel > 0 {
		confA.DefaultFuel = fuel
	}
	confB := confA
	confB.Superblocks = true
	mA, thA := buildFor(t, confA, insts)
	mB, thB := buildFor(t, confB, insts)
	if setup != nil {
		setup(thA)
		setup(thB)
	}
	fA, fB := mA.Run(), mB.Run()
	if (fA == nil) != (fB == nil) {
		t.Fatalf("[fuel=%d] fault mismatch: stepwise=%v superblock=%v", fuel, fA, fB)
	}
	if fA != nil {
		if *fA != *fB {
			t.Fatalf("[fuel=%d] fault mismatch:\nstepwise:   %+v\nsuperblock: %+v", fuel, *fA, *fB)
		}
		if fA.Error() != fB.Error() {
			t.Fatalf("[fuel=%d] fault message mismatch:\nstepwise:   %s\nsuperblock: %s", fuel, fA.Error(), fB.Error())
		}
	}
	if thA.Regs != thB.Regs {
		t.Fatalf("[fuel=%d] register mismatch:\nstepwise:   %v\nsuperblock: %v", fuel, thA.Regs, thB.Regs)
	}
	if thA.PC != thB.PC {
		t.Fatalf("[fuel=%d] PC mismatch: stepwise=%#x superblock=%#x", fuel, thA.PC, thB.PC)
	}
	if thA.ZF != thB.ZF || thA.SF != thB.SF || thA.CF != thB.CF || thA.OF != thB.OF {
		t.Fatalf("[fuel=%d] flag mismatch across dispatch modes", fuel)
	}
	if thA.Stats.Arch() != thB.Stats.Arch() {
		t.Fatalf("[fuel=%d] stats mismatch:\nstepwise:   %+v\nsuperblock: %+v", fuel, thA.Stats, thB.Stats)
	}
	if dA, dB := mA.Mem.Digest(), mB.Mem.Digest(); dA != dB {
		t.Fatalf("[fuel=%d] memory digest mismatch: %#x vs %#x", fuel, dA, dB)
	}
	return thA
}

// encodeLen returns the encoded length of one instruction.
func encodeLen(in asm.Inst) int64 { return int64(len(asm.Encode(nil, in))) }

func TestSuperblockParityLoop(t *testing.T) {
	// Hand-lay a countdown loop with a store and a load in the body.
	pre := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 100},
		{Op: asm.OpMovRI, Dst: asm.RDI, Imm: 0x100100},
	}
	var loopStart int64 = 0x1000
	for _, in := range pre {
		loopStart += encodeLen(in)
	}
	body := []asm.Inst{
		{Op: asm.OpAddRR, Dst: asm.RAX, Src: asm.RCX},
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		{Op: asm.OpLoad, Dst: asm.RDX, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8}},
		{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	}
	thA := runParity(t, append(pre, body...), 0, nil)
	if thA.Regs[asm.RAX] != 5050 {
		t.Fatalf("loop computed %d, want 5050", thA.Regs[asm.RAX])
	}
}

// TestSuperblockParityFallThrough: straight-line code that falls into a
// label which is also a jcc target, the shape fall-through block layout
// emits. The label starts its own run for the jcc while the runs before
// it run straight across it; every fuel cut must still match stepping.
func TestSuperblockParityFallThrough(t *testing.T) {
	pre := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 10},
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 0},
	}
	head := int64(0x1000)
	for _, in := range pre {
		head += encodeLen(in)
	}
	top := []asm.Inst{ // head: falls in from pre, target of the back edge
		{Op: asm.OpAddRR, Dst: asm.RAX, Src: asm.RCX},
		{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 5},
	}
	skip := head
	for _, in := range top {
		skip += encodeLen(in)
	}
	jge := asm.Inst{Op: asm.OpJcc, Cond: asm.CondGE}
	add := asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 100}
	skip += encodeLen(jge) + encodeLen(add)
	jge.Imm = skip
	tail := []asm.Inst{ // skip: falls in from add, target of jge
		{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		{Op: asm.OpJcc, Cond: asm.CondNE, Imm: head},
	}
	insts := append(append(append(pre, top...), jge, add), tail...)
	for _, fuel := range []uint64{0, 3, 7, 11, 13, 29} {
		th := runParity(t, insts, fuel, nil)
		if fuel == 0 && th.Regs[asm.RAX] != 555 {
			t.Fatalf("loop computed %d, want 555", th.Regs[asm.RAX])
		}
	}
}

func TestSuperblockParityFaults(t *testing.T) {
	cases := []struct {
		name  string
		insts []asm.Inst
		kind  FaultKind
	}{
		{"unmapped-load", []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000},
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		}, FaultUnmapped},
		{"store-to-code", []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x1000},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}, FaultPerm},
		{"divide-zero", []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 5},
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0},
			{Op: asm.OpDivRR, Dst: asm.RAX, Src: asm.RBX},
		}, FaultDivide},
		{"trap", []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 5},
			{Op: asm.OpTrap},
		}, FaultCFI},
		{"nx-jump", []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100000},
			{Op: asm.OpJmpR, Src: asm.RBX},
		}, FaultNX},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			thA := runParity(t, c.insts, 0, nil)
			if thA.Fault == nil || thA.Fault.Kind != c.kind {
				t.Fatalf("want fault kind %d, got %v", c.kind, thA.Fault)
			}
		})
	}
}

// TestDivideOverflowFaults: INT64_MIN / -1 (and % -1) overflows the
// quotient; x64 raises #DE, and the interpreter must fault like the
// modeled hardware rather than wrap like a host Go division.
func TestDivideOverflowFaults(t *testing.T) {
	for _, op := range []asm.Op{asm.OpDivRR, asm.OpModRR} {
		thA := runParity(t, []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: -0x8000000000000000},
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: -1},
			{Op: op, Dst: asm.RAX, Src: asm.RBX},
		}, 0, nil)
		if thA.Fault == nil || thA.Fault.Kind != FaultDivide {
			t.Fatalf("%v: want divide fault, got %v", op, thA.Fault)
		}
	}
}

// TestSignExtendAndUnsignedDivide: movsx sign-extends a register in place
// from its low 1, 2 or 4 bytes, div/mod divide as unsigned 64-bit values
// and take #DE on a zero divisor (but not on the signed overflow pair),
// identically in both dispatch modes, at movsx's 1 cycle and the divides'
// 20.
func TestSignExtendAndUnsignedDivide(t *testing.T) {
	th := runParity(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 0x1234_5678_8000_00ff},
		{Op: asm.OpMovRR, Dst: asm.RBX, Src: asm.RAX},
		{Op: asm.OpMovRR, Dst: asm.RCX, Src: asm.RAX},
		{Op: asm.OpMovRR, Dst: asm.RDX, Src: asm.RAX},
		{Op: asm.OpMovsx, Dst: asm.RBX, Imm: 1},
		{Op: asm.OpMovsx, Dst: asm.RCX, Imm: 2},
		{Op: asm.OpMovsx, Dst: asm.RDX, Imm: 4},
		{Op: asm.OpMovRI, Dst: asm.RSI, Imm: -1},
		{Op: asm.OpMovRI, Dst: asm.RDI, Imm: 2},
		{Op: asm.OpUDivRR, Dst: asm.RSI, Src: asm.RDI},
		{Op: asm.OpMovRI, Dst: asm.R8, Imm: -1},
		{Op: asm.OpMovRI, Dst: asm.R9, Imm: 10},
		{Op: asm.OpUModRR, Dst: asm.R8, Src: asm.R9},
		{Op: asm.OpMovRI, Dst: asm.R10, Imm: -0x8000000000000000},
		{Op: asm.OpMovRI, Dst: asm.R11, Imm: -1},
		{Op: asm.OpUDivRR, Dst: asm.R10, Src: asm.R11},
	}, 0, nil)
	if th.Fault != nil {
		t.Fatal(th.Fault)
	}
	for r, want := range map[asm.Reg]uint64{
		asm.RBX: 0xffff_ffff_ffff_ffff, // 0xff as a byte is -1
		asm.RCX: 0xff,                  // 0x00ff as a short
		asm.RDX: 0xffff_ffff_8000_00ff, // 0x800000ff as an int
		asm.RSI: 1<<63 - 1,             // (2^64-1) / 2
		asm.R8:  5,                     // (2^64-1) % 10
		asm.R10: 0,                     // 2^63 / (2^64-1)
	} {
		if th.Regs[r] != want {
			t.Errorf("%v = %#x, want %#x", r, th.Regs[r], want)
		}
	}
	// 16 instructions: 3 divides at 20 cycles, the rest at 1, plus exit.
	if want := uint64(3*20 + 13 + 1); th.Stats.Cycles != want {
		t.Errorf("cycles %d, want %d", th.Stats.Cycles, want)
	}
	for _, op := range []asm.Op{asm.OpUDivRR, asm.OpUModRR} {
		thA := runParity(t, []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 5},
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0},
			{Op: op, Dst: asm.RAX, Src: asm.RBX},
		}, 0, nil)
		if thA.Fault == nil || thA.Fault.Kind != FaultDivide {
			t.Fatalf("%v by zero: want divide fault, got %v", op, thA.Fault)
		}
	}
}

// TestRunFuelParity: the instruction budget must cut execution at the
// same instruction in both dispatch modes, even when the boundary lands
// in the middle of a superblock.
func TestRunFuelParity(t *testing.T) {
	loop := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 1 << 40}, // effectively infinite
	}
	var loopStart int64 = 0x1000
	for _, in := range loop {
		loopStart += encodeLen(in)
	}
	loop = append(loop,
		asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		asm.Inst{Op: asm.OpAddRI, Dst: asm.RBX, Imm: 3},
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
	for _, fuel := range []uint64{1, 2, 7, 1023, 1024, 1025, 4097} {
		// The budget boundary must land identically whether or not it
		// falls inside a block: the bite is capped and the remainder
		// resumes at the interior slot PC.
		thA := runParity(t, loop, fuel, nil)
		if thA.Fault == nil || thA.Fault.Kind != FaultFuel {
			t.Fatalf("fuel=%d: want stepwise fuel fault, got %v", fuel, thA.Fault)
		}
		if thA.Stats.Instrs != fuel-1 {
			t.Fatalf("fuel=%d: executed %d instrs, want %d", fuel, thA.Stats.Instrs, fuel-1)
		}
	}
}

// TestSuperblockCodePatchInvalidation: patching code bytes must flush
// superblocks along with the decode traces.
func TestSuperblockCodePatchInvalidation(t *testing.T) {
	insts := []asm.Inst{{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 1}}
	m, th := buildFor(t, DefaultConfig(), insts)
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	if th.Regs[asm.RAX] != 1 {
		t.Fatalf("rax=%d, want 1", th.Regs[asm.RAX])
	}

	var patched []byte
	patched = asm.Encode(patched, asm.Inst{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 2})
	patched = asm.Encode(patched, asm.Inst{Op: asm.OpExit})
	if f := m.Mem.WriteBytesUnchecked(0x1000, patched); f != nil {
		t.Fatal(f)
	}
	th.Halted = false
	th.PC = 0x1000
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	if th.Regs[asm.RAX] != 2 {
		t.Fatalf("rax=%d after code patch, want 2 (stale superblock executed)", th.Regs[asm.RAX])
	}
}

// TestSuperblockQuantumInterleaving: with multiple threads, the
// round-robin interleaving (quantum granularity) must not change with
// dispatch mode — both threads' stats and the shared memory must agree.
func TestSuperblockQuantumInterleaving(t *testing.T) {
	// Two threads increment and read a shared counter; the final counter
	// and each thread's observed values depend on the interleaving.
	mk := func(superblocks bool) (*Machine, *Thread, *Thread) {
		conf := DefaultConfig()
		conf.Superblocks = superblocks
		m := New(conf)
		var code []byte
		loopStart := int64(0x1000) + encodeLen(asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 3000}) +
			encodeLen(asm.Inst{Op: asm.OpMovRI, Dst: asm.RDI, Imm: 0x100100})
		for _, in := range []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 3000},
			{Op: asm.OpMovRI, Dst: asm.RDI, Imm: 0x100100},
			// loop:
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
			{Op: asm.OpAddRR, Dst: asm.RSI, Src: asm.RAX}, // interleaving-sensitive
			{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
			{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
			{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
			{Op: asm.OpExit},
		} {
			code = asm.Encode(code, in)
		}
		if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
			t.Fatal(err)
		}
		if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
			t.Fatal(f)
		}
		t0 := m.NewThread(0x1000, 0x100000+0x4000, 0x100000, 0x100000+0x8000)
		t1 := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
		return m, t0, t1
	}
	mA, a0, a1 := mk(false)
	mB, b0, b1 := mk(true)
	if f := mA.Run(); f != nil {
		t.Fatal(f)
	}
	if f := mB.Run(); f != nil {
		t.Fatal(f)
	}
	if a0.Regs[asm.RSI] != b0.Regs[asm.RSI] || a1.Regs[asm.RSI] != b1.Regs[asm.RSI] {
		t.Fatalf("interleaving-sensitive sums differ: (%d,%d) vs (%d,%d)",
			a0.Regs[asm.RSI], a1.Regs[asm.RSI], b0.Regs[asm.RSI], b1.Regs[asm.RSI])
	}
	if a0.Stats.Arch() != b0.Stats.Arch() || a1.Stats.Arch() != b1.Stats.Arch() {
		t.Fatal("per-thread stats differ across dispatch modes")
	}
	if mA.Mem.Digest() != mB.Mem.Digest() {
		t.Fatal("shared memory differs across dispatch modes")
	}
	// The exact counter value depends on lost updates at quantum
	// boundaries — which is precisely the scheduler-sensitive behavior the
	// two modes must agree on (the digest check above covers the value);
	// it must at least reflect one thread's worth of increments.
	v, f := mA.Mem.Read(0x100100, 8)
	if f != nil || v < 3000 {
		t.Fatalf("shared counter = %d (%v), want >= 3000", v, f)
	}
}

// buildRawFor maps a code region of exactly size bytes at 0x1000 (plus
// the standard data region), writes code into it, and returns a thread
// at 0x1000. Unlike buildFor it appends no trailing exit, so tests can
// lay out code that runs into the region edge or into garbage bytes.
func buildRawFor(t *testing.T, conf Config, code []byte, size uint64) (*Machine, *Thread) {
	t.Helper()
	m := New(conf)
	if uint64(len(code)) > size {
		t.Fatalf("code (%d bytes) exceeds region size %d", len(code), size)
	}
	if _, err := m.Mem.Map("code", 0x1000, size, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		t.Fatal(f)
	}
	th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
	return m, th
}

// TestChainStraightLineOffRegion pins the rule that a block whose
// straight-line flow runs off the end of its region must never chain: a
// chained successor would bypass the fetch fault stepping mode delivers
// at the first PC past the region. The loop's jcc fall-through edge leads
// into exactly such a block, so a buggy chain would carry the hot loop
// straight past the region edge.
func TestChainStraightLineOffRegion(t *testing.T) {
	var code []byte
	code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 40})
	loopStart := int64(0x1000 + len(code))
	for _, in := range []asm.Inst{
		{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	} {
		code = asm.Encode(code, in)
	}
	// Fall-through: straight-line code that ends exactly at the region
	// edge, with no terminator.
	offEdge := uint64(len(code))
	code = asm.Encode(code, asm.Inst{Op: asm.OpAddRI, Dst: asm.RBX, Imm: 7})
	size := uint64(len(code)) // region ends exactly after the last instruction

	mA, thA := buildRawFor(t, stepwiseConf(), code, size)
	fA := mA.Run()
	if fA == nil || fA.Kind != FaultUnmapped {
		t.Fatalf("stepwise: want unmapped fetch fault past the region, got %v", fA)
	}
	if want := uint64(0x1000) + size; fA.PC != want {
		t.Fatalf("stepwise fault PC = %#x, want %#x", fA.PC, want)
	}

	mB, thB := buildRawFor(t, DefaultConfig(), code, size)
	fB := mB.Run()
	if fB == nil || *fA != *fB || fA.Error() != fB.Error() {
		t.Fatalf("fault mismatch: stepwise=%+v superblock=%v", *fA, fB)
	}
	if thA.Regs != thB.Regs || thA.Stats.Arch() != thB.Stats.Arch() || thA.PC != thB.PC {
		t.Fatal("state mismatch at off-region fault")
	}
	// White-box: the final block must have been built as unchainable (no
	// terminator, so no edge to follow past the missing fetch).
	tr := mB.traces[0]
	run := tr.runs[offEdge]
	if run == nil {
		t.Fatalf("no run built at the fall-through block (off %#x)", offEdge)
	}
	if run.term != asm.OpInvalid {
		t.Fatalf("off-region block has terminator %v, want OpInvalid", run.term)
	}
	if run.next != nil || run.taken != nil || run.fall != nil {
		t.Fatal("off-region block cached a chain link; it must never chain")
	}
}

// TestChainedDecodeFaultTarget: a direct jmp whose target does not
// decode. Chain resolution must refuse the link and let the dispatcher
// deliver the decode fault with the same kind, address, PC, message and
// charging as stepping mode.
func TestChainedDecodeFaultTarget(t *testing.T) {
	var code []byte
	code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 5})
	jmpLen := encodeLen(asm.Inst{Op: asm.OpJmp, Imm: 0})
	target := int64(0x1000+len(code)) + jmpLen
	code = asm.Encode(code, asm.Inst{Op: asm.OpJmp, Imm: target})
	code = append(code, 0xFF) // undecodable opcode at the jump target

	mA, thA := buildRawFor(t, stepwiseConf(), code, 0x1000)
	fA := mA.Run()
	if fA == nil || fA.Kind != FaultDecode {
		t.Fatalf("stepwise: want decode fault at jmp target, got %v", fA)
	}
	if fA.Addr != uint64(target) || fA.PC != uint64(target) {
		t.Fatalf("stepwise fault addr/PC = %#x/%#x, want %#x", fA.Addr, fA.PC, target)
	}
	mB, thB := buildRawFor(t, DefaultConfig(), code, 0x1000)
	fB := mB.Run()
	if fB == nil || *fA != *fB || fA.Error() != fB.Error() {
		t.Fatalf("fault mismatch: stepwise=%+v superblock=%v", *fA, fB)
	}
	if thA.Regs != thB.Regs || thA.Stats.Arch() != thB.Stats.Arch() {
		t.Fatal("state mismatch at decode fault")
	}
}

// chainLoopWithHandler builds a countdown loop that calls a trusted
// handler once per iteration; handler receives the PCs of the loop's add
// instruction and its successor.
func chainLoopWithHandler(t *testing.T, conf Config, iters int64,
	handler func(addPC uint64) Handler) (*Machine, *Thread) {
	t.Helper()
	m := New(conf)
	const hpc = 0x9000
	var code []byte
	code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters})
	loopStart := int64(0x1000 + len(code))
	code = asm.Encode(code, asm.Inst{Op: asm.OpCall, Imm: hpc})
	addPC := uint64(0x1000 + len(code))
	code = asm.Encode(code, asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1})
	for _, in := range []asm.Inst{
		{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
		{Op: asm.OpExit},
	} {
		code = asm.Encode(code, in)
	}
	if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		t.Fatal(f)
	}
	m.Handlers[hpc] = handler(addPC)
	th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
	return m, th
}

// TestChainedCodePatchInvalidation: a trusted handler patches the body of
// a loop that is already executing through cached chain links. The patch
// flushes the traces (runs and links included), so the remaining
// iterations must execute the new bytes — identically under stepping and
// block dispatch.
func TestChainedCodePatchInvalidation(t *testing.T) {
	mk := func(superblocks bool) (*Machine, *Thread) {
		conf := DefaultConfig()
		conf.Superblocks = superblocks
		calls := 0
		return chainLoopWithHandler(t, conf, 6,
			func(addPC uint64) Handler {
				return func(m *Machine, t *Thread) *Fault {
					ret, f := t.Pop()
					if f != nil {
						return f
					}
					t.PC = ret
					calls++
					if calls == 3 {
						// Patch "add rax, 1" to "add rax, 100" mid-loop.
						patch := asm.Encode(nil, asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 100})
						if pf := m.Mem.WriteBytesUnchecked(addPC, patch); pf != nil {
							return pf
						}
					}
					return nil
				}
			})
	}
	mA, thA := mk(false)
	if f := mA.Run(); f != nil {
		t.Fatal(f)
	}
	// Iterations 1-2 add 1; the patch lands during iteration 3's call, so
	// iterations 3-6 add 100.
	if want := uint64(2 + 4*100); thA.Regs[asm.RAX] != want {
		t.Fatalf("stepwise rax = %d, want %d", thA.Regs[asm.RAX], want)
	}
	mB, thB := mk(true)
	if f := mB.Run(); f != nil {
		t.Fatal(f)
	}
	if thA.Regs != thB.Regs || thA.Stats.Arch() != thB.Stats.Arch() || thA.PC != thB.PC {
		t.Fatalf("state mismatch after mid-loop code patch:\nstepwise:   %+v\nsuperblock: %+v",
			thA.Stats, thB.Stats)
	}
	if dA, dB := mA.Mem.Digest(), mB.Mem.Digest(); dA != dB {
		t.Fatal("memory digest mismatch after patch")
	}
}

// TestChainLinksResolvedAndFlushed is the white-box pin on the chain
// cache itself: a hot self-loop must end up with its taken edge chained
// to its own run and its fall edge chained to the exit block, and a code
// patch must drop the trace, taking every run and link with it.
func TestChainLinksResolvedAndFlushed(t *testing.T) {
	pre := []asm.Inst{{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 500}}
	loopStart := int64(0x1000) + encodeLen(pre[0])
	insts := append(pre,
		asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
	m, th := buildFor(t, DefaultConfig(), insts)
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	if th.Regs[asm.RAX] != 500 {
		t.Fatalf("loop computed %d, want 500", th.Regs[asm.RAX])
	}
	tr := m.traces[0]
	off := uint64(loopStart) - tr.lo
	run := tr.runs[off]
	if run == nil || run.term != asm.OpJcc {
		t.Fatalf("loop block not built as a jcc run: %+v", run)
	}
	if run.taken != run {
		t.Fatalf("self-loop taken edge not chained to its own run (got %p, want %p)", run.taken, run)
	}
	if run.fall == nil || run.fall.term != asm.OpExit {
		t.Fatalf("fall edge not chained to the exit block: %+v", run.fall)
	}

	// A code patch must flush the trace, runs and links together.
	if f := m.Mem.WriteBytesUnchecked(0x1000, asm.Encode(nil, pre[0])); f != nil {
		t.Fatal(f)
	}
	if len(m.traces) != 0 || m.lastTrace != nil {
		t.Fatalf("a code patch left %d decode traces cached", len(m.traces))
	}
}

// TestHandlerInsideCodeRejected pins the dispatch contract: a trusted
// handler address never lies in an executable region. Registering the
// code region with a handler inside it (the loader's last step) and
// calling Run with one registered after the trace was built must both
// fault, naming the lowest offending address, before anything executes.
func TestHandlerInsideCodeRejected(t *testing.T) {
	insts := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 1},
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 2},
	}
	hpc := uint64(0x1000 + encodeLen(insts[0]))
	nop := func(m *Machine, t *Thread) *Fault { return nil }
	check := func(what string, f *Fault) {
		t.Helper()
		if f == nil {
			t.Fatalf("%s accepted a trusted handler inside the code region", what)
		}
		if f.Kind != FaultPerm || f.Addr != hpc {
			t.Fatalf("%s: fault %v, want a permission fault at %#x", what, f, hpc)
		}
		if msg := f.Error(); !strings.Contains(msg, fmt.Sprintf("%#x", hpc)) {
			t.Fatalf("%s: fault message %q does not name %#x", what, msg, hpc)
		}
	}

	m, _ := buildFor(t, DefaultConfig(), insts)
	m.Handlers[hpc+uint64(encodeLen(insts[1]))] = nop
	m.Handlers[hpc] = nop
	m.Handlers[0x9000] = nop // outside every region: allowed
	check("RegisterCode", m.RegisterCode(0x1000))

	for _, conf := range []Config{stepwiseConf(), DefaultConfig()} {
		m, th := buildFor(t, conf, insts)
		if f := m.RegisterCode(0x1000); f != nil {
			t.Fatal(f)
		}
		m.Handlers[hpc] = nop
		check(fmt.Sprintf("Run (superblocks=%v)", conf.Superblocks), m.Run())
		if th.Stats.Instrs != 0 || th.Regs[asm.RAX] != 0 {
			t.Fatalf("Run executed %d instructions before rejecting the handler", th.Stats.Instrs)
		}
	}
}

// TestStepReusesBlockDispatchedRun: Step is one-instruction block
// dispatch over the same run cache. A second thread single-stepped
// through a loop that block dispatch already ran must execute the cached
// full run's slots in place, one instruction per Step, leaving the run
// full-length and chained to itself, and end in the same state as the
// block-dispatched thread.
func TestStepReusesBlockDispatchedRun(t *testing.T) {
	pre := []asm.Inst{{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 200}}
	loopStart := int64(0x1000) + encodeLen(pre[0])
	insts := append(pre,
		asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
	m, th := buildFor(t, DefaultConfig(), insts)
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	tr := m.traces[0]
	off := uint64(loopStart) - tr.lo
	full := tr.runs[off]
	if full == nil || full.n != 4 || full.term != asm.OpJcc || full.taken != full {
		t.Fatalf("block dispatch did not build a full self-chained loop run: %+v", full)
	}

	th2 := m.NewThread(0x1000, 0x100000+0x4000, 0x100000, 0x100000+0x8000)
	for steps := uint64(1); !th2.Halted; steps++ {
		if steps > 10_000 {
			t.Fatal("second thread did not halt")
		}
		if f := th2.Step(); f != nil {
			t.Fatal(f)
		}
		if th2.Stats.Instrs != steps {
			t.Fatalf("Step %d executed %d instructions in total, want one per Step", steps, th2.Stats.Instrs)
		}
		if tr.runs[off] != full || full.n != 4 || full.taken != full {
			t.Fatalf("Step replaced or unchained the full loop run: %+v", tr.runs[off])
		}
	}
	regs := th2.Regs
	regs[asm.RSP] = th.Regs[asm.RSP] // the two threads run on different stacks
	if regs != th.Regs || th2.PC != th.PC || th2.ExitCode != th.ExitCode {
		t.Fatalf("stepped thread ended at pc %#x with %v, block-dispatched at %#x with %v",
			th2.PC, th2.Regs, th.PC, th.Regs)
	}
	if th.Stats != th2.Stats {
		t.Fatalf("stepped thread stats %+v != block-dispatched thread stats %+v", th2.Stats, th.Stats)
	}
}

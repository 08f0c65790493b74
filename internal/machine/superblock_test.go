package machine

import (
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

// TestSuperblockHandlerInvalidation: registering a trusted handler at a PC
// in the middle of an already-built superblock must re-split the
// blocks so the handler is dispatched, exactly as per-instruction
// stepping would.
func TestSuperblockHandlerInvalidation(t *testing.T) {
	insts := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 1},
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 2},
		{Op: asm.OpMovRI, Dst: asm.RDX, Imm: 3},
	}
	conf := DefaultConfig()
	m, th := buildFor(t, conf, insts)
	// First run builds the whole body as one superblock.
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	if th.Regs[asm.RDX] != 3 {
		t.Fatalf("rdx=%d, want 3", th.Regs[asm.RDX])
	}

	// Install a handler at the third instruction's PC: stepping mode would
	// dispatch it instead of executing the mov.
	hpc := uint64(0x1000) + uint64(2*encodeLen(insts[0]))
	exitPC := uint64(0x1000)
	for _, in := range insts {
		exitPC += uint64(encodeLen(in))
	}
	called := false
	m.Handlers[hpc] = func(m *Machine, t *Thread) *Fault {
		called = true
		t.Regs[asm.RDX] = 99
		t.PC = exitPC // resume at the trailing exit
		return nil
	}

	th.Halted = false
	th.PC = 0x1000
	th.Regs = [asm.NumRegs]uint64{}
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	if !called {
		t.Fatal("handler inside a built block was not dispatched after re-registration")
	}
	if th.Regs[asm.RDX] != 99 {
		t.Fatalf("rdx=%d, want 99 (handler result)", th.Regs[asm.RDX])
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

// chainLoopWithHandler builds the shared shape of the mid-run
// invalidation tests: a countdown loop that calls a trusted handler once
// per iteration. It returns the machine, thread, and the PCs of the
// add instruction and its successor.
func chainLoopWithHandler(t *testing.T, conf Config, iters int64,
	handler func(addPC, skipPC uint64) Handler) (*Machine, *Thread) {
	t.Helper()
	m := New(conf)
	const hpc = 0x9000
	var code []byte
	code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters})
	loopStart := int64(0x1000 + len(code))
	code = asm.Encode(code, asm.Inst{Op: asm.OpCall, Imm: hpc})
	addPC := uint64(0x1000 + len(code))
	code = asm.Encode(code, asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1})
	skipPC := uint64(0x1000 + len(code))
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
	m.Handlers[hpc] = handler(addPC, skipPC)
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
			func(addPC, skipPC uint64) Handler {
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

// TestChainedHandlerRegistrationMidRun: a trusted handler registers a
// second handler at a PC inside a loop that is already chained. The
// handler index rebuild (hoisted to run after handler dispatches) moves
// [hndLo, hndHi] across the loop and flushes every run and chain link,
// so the new handler must be dispatched instead of the in-block add —
// identically under stepping and block dispatch.
func TestChainedHandlerRegistrationMidRun(t *testing.T) {
	mk := func(superblocks bool) (*Machine, *Thread) {
		conf := DefaultConfig()
		conf.Superblocks = superblocks
		calls := 0
		return chainLoopWithHandler(t, conf, 8,
			func(addPC, skipPC uint64) Handler {
				return func(m *Machine, t *Thread) *Fault {
					ret, f := t.Pop()
					if f != nil {
						return f
					}
					t.PC = ret
					calls++
					if calls == 4 {
						m.Handlers[addPC] = func(m *Machine, t *Thread) *Fault {
							t.Regs[asm.RDX] += 50
							t.PC = skipPC
							return nil
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
	// Iterations 1-3 execute the add; from iteration 4 on the new handler
	// shadows it.
	if thA.Regs[asm.RAX] != 3 || thA.Regs[asm.RDX] != 5*50 {
		t.Fatalf("stepwise rax/rdx = %d/%d, want 3/250", thA.Regs[asm.RAX], thA.Regs[asm.RDX])
	}
	mB, thB := mk(true)
	if f := mB.Run(); f != nil {
		t.Fatal(f)
	}
	if thA.Regs != thB.Regs || thA.Stats.Arch() != thB.Stats.Arch() || thA.PC != thB.PC {
		t.Fatalf("state mismatch after mid-run handler registration:\nstepwise:   %+v\nsuperblock: %+v",
			thA.Stats, thB.Stats)
	}
}

// TestChainedHandlerAtBranchTarget: a trusted handler registered mid-run
// at the loop head — the taken target of the loop's jcc, in the same
// trace as the loop. Chain resolution must refuse a link into the
// handler range, so the jcc goes back through the dispatcher and the new
// handler runs instead of the loop head's call, as under stepping.
func TestChainedHandlerAtBranchTarget(t *testing.T) {
	callLen := uint64(encodeLen(asm.Inst{Op: asm.OpCall, Imm: 0x9000}))
	mk := func(superblocks bool) (*Machine, *Thread) {
		conf := DefaultConfig()
		conf.Superblocks = superblocks
		calls := 0
		return chainLoopWithHandler(t, conf, 8,
			func(addPC, skipPC uint64) Handler {
				return func(m *Machine, t *Thread) *Fault {
					ret, f := t.Pop()
					if f != nil {
						return f
					}
					t.PC = ret
					calls++
					if calls == 4 {
						// The loop head is the call just before addPC.
						m.Handlers[addPC-callLen] = func(m *Machine, t *Thread) *Fault {
							t.Regs[asm.RDX] += 50
							t.PC = addPC
							return nil
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
	// Iterations 1-4 enter the loop head's call; iterations 5-8 enter the
	// new handler at the loop head instead.
	if thA.Regs[asm.RAX] != 8 || thA.Regs[asm.RDX] != 4*50 {
		t.Fatalf("stepwise rax/rdx = %d/%d, want 8/200", thA.Regs[asm.RAX], thA.Regs[asm.RDX])
	}
	mB, thB := mk(true)
	if f := mB.Run(); f != nil {
		t.Fatal(f)
	}
	if thA.Regs != thB.Regs || thA.Stats.Arch() != thB.Stats.Arch() || thA.PC != thB.PC {
		t.Fatalf("state mismatch after registering a handler at a branch target:\nstepwise:   %+v\nsuperblock: %+v",
			thA.Stats, thB.Stats)
	}
}

// TestChainLinksResolvedAndFlushed is the white-box pin on the chain
// cache itself: a hot self-loop must end up with its taken edge chained
// to its own run and its fall edge chained to the exit block, and a
// handler-range change must drop every run, block count and link.
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
	if tr.blocks[off] != uint16(run.n) {
		t.Fatalf("blocks[] count %d disagrees with run length %d", tr.blocks[off], run.n)
	}
	if run.taken != run {
		t.Fatalf("self-loop taken edge not chained to its own run (got %p, want %p)", run.taken, run)
	}
	if run.fall == nil || run.fall.term != asm.OpExit {
		t.Fatalf("fall edge not chained to the exit block: %+v", run.fall)
	}

	// A handler-range change must flush runs, counts and links together.
	m.Handlers[0x9000] = func(m *Machine, t *Thread) *Fault { return nil }
	m.RefreshHandlers()
	for i := range tr.runs {
		if tr.runs[i] != nil || tr.blocks[i] != 0 {
			t.Fatalf("run/block metadata at off %#x survived a handler-range flush", i)
		}
	}
}

// TestStepThenRunRebuildsFullBlocks: a Step at a PC builds a one-slot
// run; later block dispatch at the same PC must rebuild it at full
// length (and chain it) rather than inheriting one-instruction
// dispatches forever.
func TestStepThenRunRebuildsFullBlocks(t *testing.T) {
	pre := []asm.Inst{{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 300}}
	loopStart := int64(0x1000) + encodeLen(pre[0])
	insts := append(pre,
		asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
	m, th := buildFor(t, DefaultConfig(), insts)

	// Single-step into the loop body: builds (and caches) short runs.
	for i := 0; i < 3; i++ {
		if f := th.Step(); f != nil {
			t.Fatal(f)
		}
	}
	tr := m.traces[0]
	off := uint64(loopStart) - tr.lo
	if run := tr.runs[off]; run == nil || !run.short || run.n != 1 {
		t.Fatalf("expected a cached one-slot short run at the loop head after Step, got %+v", run)
	}

	// Block dispatch must replace the short run with the full block and
	// chain it, then finish the loop with results identical to stepping.
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	run := tr.runs[off]
	if run == nil || run.short || run.n < 4 || run.term != asm.OpJcc {
		t.Fatalf("block dispatch did not rebuild the short run at full length: %+v", run)
	}
	if run.taken != run {
		t.Fatal("rebuilt loop run was not chained to itself")
	}
	if th.Regs[asm.RAX] != 300 {
		t.Fatalf("loop computed %d, want 300", th.Regs[asm.RAX])
	}
}

// TestStepNeverCachesFusedSlots: Step caches nothing but one-slot short
// runs, and never replaces a full block that block dispatch built. (The
// name predates the removal of superinstruction fusion, when Step also
// had to keep fused slot programs out of its one-slot runs.) A second
// thread single-stepped through an already-dispatched loop must execute
// the cached full run's slot 0 in place — leaving it full-length and
// chained to itself — and end in the same state as the first thread.
func TestStepNeverCachesFusedSlots(t *testing.T) {
	pre := []asm.Inst{{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 200}}
	loopStart := int64(0x1000) + encodeLen(pre[0])
	insts := append(pre,
		asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
	m, th := buildFor(t, DefaultConfig(), insts)

	// Stepping a fresh trace caches exactly one slot per stepped PC.
	pcs := make([]uint64, 0, 3)
	for i := 0; i < 3; i++ {
		pcs = append(pcs, th.PC)
		if f := th.Step(); f != nil {
			t.Fatal(f)
		}
	}
	tr := m.traces[0]
	for _, pc := range pcs {
		if run := tr.runs[pc-tr.lo]; run == nil || !run.short || run.n != 1 {
			t.Fatalf("Step at %#x cached %+v, want a one-slot short run", pc, run)
		}
	}

	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	off := uint64(loopStart) - tr.lo
	full := tr.runs[off]
	if full == nil || full.short || full.n < 4 || full.taken != full {
		t.Fatalf("block dispatch did not build a full self-chained loop run: %+v", full)
	}

	// A second thread stepped all the way through must reuse that run.
	th2 := m.NewThread(0x1000, 0x100000+0x4000, 0x100000, 0x100000+0x8000)
	for steps := 0; !th2.Halted; steps++ {
		if steps > 10_000 {
			t.Fatal("second thread did not halt")
		}
		if f := th2.Step(); f != nil {
			t.Fatal(f)
		}
		if tr.runs[off] != full || full.short || full.taken != full {
			t.Fatalf("Step replaced or unchained the full loop run: %+v", tr.runs[off])
		}
	}
	if th.Regs[asm.RAX] != 200 || th2.Regs[asm.RAX] != 200 {
		t.Fatalf("loop computed %d and %d, want 200", th.Regs[asm.RAX], th2.Regs[asm.RAX])
	}
	if th.Stats != th2.Stats {
		t.Fatalf("stepped thread stats %+v != block-dispatched thread stats %+v", th2.Stats, th.Stats)
	}
}

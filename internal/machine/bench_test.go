package machine

import (
	"testing"

	"confllvm/internal/asm"
)

// benchThread maps a code page, encodes insts followed by a jmp back to the
// start, and returns a thread that can Step forever without halting.
func benchThread(b *testing.B, insts []asm.Inst) (*Machine, *Thread) {
	b.Helper()
	m := New(DefaultConfig())
	var code []byte
	for _, in := range insts {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpJmp, Imm: 0x1000})
	if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		b.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		b.Fatal(f)
	}
	t := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
	return m, t
}

func stepLoop(b *testing.B, t *Thread) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := t.Step(); f != nil {
			b.Fatal(f)
		}
	}
	b.StopTimer()
	mips := float64(t.Stats.Instrs) / 1e6 / b.Elapsed().Seconds()
	b.ReportMetric(mips, "MIPS")
}

// BenchmarkStep measures straight-line ALU throughput: the pure
// fetch/decode/dispatch cost with no memory operands.
func BenchmarkStep(b *testing.B) {
	_, t := benchThread(b, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
		{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 3},
		{Op: asm.OpMovRR, Dst: asm.RBX, Src: asm.RAX},
		{Op: asm.OpXorRR, Dst: asm.RCX, Src: asm.RBX},
		{Op: asm.OpShlRI, Dst: asm.RBX, Imm: 2},
		{Op: asm.OpSubRR, Dst: asm.RBX, Src: asm.RAX},
		{Op: asm.OpCmpRI, Dst: asm.RBX, Imm: 100},
		{Op: asm.OpSetCC, Cond: asm.CondL, Dst: asm.RDX},
	})
	stepLoop(b, t)
}

// BenchmarkStepMem measures the load/store path through Memory including
// the L1 model.
func BenchmarkStepMem(b *testing.B) {
	_, t := benchThread(b, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100000},
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		{Op: asm.OpLoad, Dst: asm.RCX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		{Op: asm.OpLoad, Dst: asm.RDX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 4, Disp: 16}},
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 1, Disp: 32}, Src: asm.RDX},
	})
	stepLoop(b, t)
}

// BenchmarkStepBnd measures the MPX check path (the hot extra work of the
// OurMPX variant).
func BenchmarkStepBnd(b *testing.B) {
	_, t := benchThread(b, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100100},
		{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
		{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
	})
	t.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x10FFFF}
	stepLoop(b, t)
}

// BenchmarkRun measures whole-Run dispatch throughput on a loopy program
// (straight-line ALU blocks broken by a conditional branch), comparing
// the default dispatch stack (chained superblocks with superinstruction
// fusion), each layer peeled off in turn, and per-instruction stepping.
// The "superblock" sub-benchmark is the BENCH_interp.json /
// BENCH_history.jsonl "BenchmarkRun" datapoint: it must hold a >= 1.5x
// MIPS advantage over "stepwise". "nofuse" is chained dispatch with
// fusion off — the superblock-vs-nofuse delta is the fusion win. No
// other lane name starts with "superblock": benchhistory greps for that
// prefix to find the headline lane. The "profiled" lane runs the default stack with cycle-attributed profiling
// on — its gap to "superblock" is the observability plane's enabled cost
// (the disabled cost is zero: TestRunProfileDisabledZeroAlloc).
func BenchmarkRun(b *testing.B) {
	for _, mode := range []struct {
		name        string
		superblocks bool
		chain       bool
		fuse        bool
		profile     bool
	}{
		{"superblock", true, true, true, false},
		{"nofuse", true, true, false, false},
		{"nochain", true, false, false, false},
		{"stepwise", false, false, false, false},
		{"profiled", true, true, true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			const iters = 1000
			conf := DefaultConfig()
			conf.Superblocks = mode.superblocks
			conf.Chain = mode.chain
			conf.Fuse = mode.fuse
			conf.Profile = mode.profile
			m := New(conf)
			var code []byte
			// rcx = iters; loop: 8 ALU ops; rcx--; cmp; jne loop; exit.
			code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters})
			loopStart := 0x1000 + uint64(len(code))
			for _, in := range []asm.Inst{
				{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
				{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 3},
				{Op: asm.OpMovRR, Dst: asm.RBX, Src: asm.RAX},
				{Op: asm.OpXorRR, Dst: asm.RDX, Src: asm.RBX},
				{Op: asm.OpShlRI, Dst: asm.RBX, Imm: 2},
				{Op: asm.OpSubRR, Dst: asm.RBX, Src: asm.RAX},
				{Op: asm.OpAddRR, Dst: asm.RSI, Src: asm.RBX},
				{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
				{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
			} {
				code = asm.Encode(code, in)
			}
			code = asm.Encode(code, asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: int64(loopStart)})
			code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
			if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
				b.Fatal(err)
			}
			if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
				b.Fatal(f)
			}
			t := m.NewThread(0x1000, 0, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Halted = false
				t.Fault = nil
				t.PC = 0x1000
				if f := m.Run(); f != nil {
					b.Fatal(f)
				}
			}
			b.StopTimer()
			mips := float64(t.Stats.Instrs) / 1e6 / b.Elapsed().Seconds()
			b.ReportMetric(mips, "MIPS")
		})
	}
}

// BenchmarkDispatchOnly isolates the dispatcher's constant factor from
// memory traffic: a pure-ALU loop (no loads, stores or checks) where the
// only per-instruction work besides the register arithmetic is fetching
// the next slot and dispatching its opcode. The switch-vs-fused delta
// here is the pure dispatch-overhead win that BenchmarkRun dilutes with
// the memory model.
func BenchmarkDispatchOnly(b *testing.B) {
	for _, mode := range []struct {
		name string
		fuse bool
	}{
		{"switch", false},
		{"fused", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			const iters = 1000
			conf := DefaultConfig()
			conf.Superblocks = true
			conf.Chain = true
			conf.Fuse = mode.fuse
			m := New(conf)
			var code []byte
			code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters})
			loopStart := 0x1000 + uint64(len(code))
			for _, in := range []asm.Inst{
				{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 3},
				{Op: asm.OpXorRR, Dst: asm.RDX, Src: asm.RAX},
				{Op: asm.OpAddRR, Dst: asm.RSI, Src: asm.RAX},
				{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
				{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
			} {
				code = asm.Encode(code, in)
			}
			code = asm.Encode(code, asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: int64(loopStart)})
			code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
			if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
				b.Fatal(err)
			}
			if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
				b.Fatal(f)
			}
			t := m.NewThread(0x1000, 0, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Halted = false
				t.Fault = nil
				t.PC = 0x1000
				if f := m.Run(); f != nil {
					b.Fatal(f)
				}
			}
			b.StopTimer()
			mips := float64(t.Stats.Instrs) / 1e6 / b.Elapsed().Seconds()
			b.ReportMetric(mips, "MIPS")
		})
	}
}

// BenchmarkMemRead measures Memory.Read alone (aligned 8-byte hits).
func BenchmarkMemRead(b *testing.B) {
	mem := NewMemory()
	if _, err := mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		b.Fatal(err)
	}
	if f := mem.Write(0x100040, 8, 0x1122334455667788); f != nil {
		b.Fatal(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var v uint64
	for i := 0; i < b.N; i++ {
		x, f := mem.Read(0x100040+uint64(i%64)*8&^7, 8)
		if f != nil {
			b.Fatal(f)
		}
		v += x
	}
	sinkU64 = v
}

// BenchmarkMemWrite measures Memory.Write alone (aligned 8-byte hits).
func BenchmarkMemWrite(b *testing.B) {
	mem := NewMemory()
	if _, err := mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := mem.Write(0x100040+uint64(i%64)*8, 8, uint64(i)); f != nil {
			b.Fatal(f)
		}
	}
}

var sinkU64 uint64

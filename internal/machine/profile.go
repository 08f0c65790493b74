package machine

// Cycle-attributed profiling. When Config.Profile is set the machine
// carries a Profile: a map from attribution PC to the cycles and
// instructions spent there. The attribution grain is the superblock (or
// the trusted handler): execRun snapshots the thread's cycle counter at
// block entry and attributes the delta — the cum[] static charge plus
// every dynamic component the opcode cases added inline (cache-miss
// penalties, FP-masked bound-check refunds) — to the block's entry PC;
// Step and stepBlocks wrap trusted-handler dispatches the same way, so a
// handler's charge() cost lands on the handler's address. Because every
// mutation of Stats.Cycles in the codebase happens inside one of those
// two windows, the profile conserves cycles exactly:
//
//	sum over cells of Cycles == TotalStats().Cycles
//
// for any program, any dispatch mode, any fault. The bench layer tests
// this conservation per run; internal/obs symbolizes the PCs against the
// link-layer symbol table.
//
// The profile also keeps a dynamic opcode histogram: add counts the
// opcodes of the slots a block executed, a faulting one included, so the
// histogram sums to TotalStats().Instrs exactly as the cells do.
//
// The disabled path costs one nil check per block (not per instruction)
// and zero allocations; TestRunProfileDisabledZeroAlloc pins that.

import "confllvm/internal/asm"

// ProfCell is one attribution bucket: the cycles and instructions charged
// at an entry PC, and how many times execution entered there.
type ProfCell struct {
	Cycles uint64
	Instrs uint64
	Hits   uint64
}

// Profile accumulates per-entry-PC cost attribution for one machine. It
// is owned by the machine's single execution goroutine; callers read it
// after Run returns.
type Profile struct {
	cells map[uint64]*ProfCell
	ops   [256]uint64 // executed instructions by opcode
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{cells: map[uint64]*ProfCell{}} }

// add charges cycles and the executed instructions insts to pc's bucket
// and counts their opcodes. A trusted-handler dispatch passes no
// instructions.
func (p *Profile) add(pc, cycles uint64, insts []asm.Inst) {
	c := p.cells[pc]
	if c == nil {
		c = &ProfCell{}
		p.cells[pc] = c
	}
	c.Cycles += cycles
	c.Instrs += uint64(len(insts))
	c.Hits++
	for i := range insts {
		p.ops[insts[i].Op]++
	}
}

// Opcodes returns the dynamic opcode histogram keyed by asm.Op.Name,
// which tells the register and immediate forms apart ("mov.rr",
// "mov.ri", "shl.ri"). Opcodes never executed are absent. The counts sum
// to TotalInstrs.
func (p *Profile) Opcodes() map[string]uint64 {
	out := map[string]uint64{}
	for op, n := range p.ops {
		if n > 0 {
			out[asm.Op(op).Name()] += n
		}
	}
	return out
}

// Cells returns a copy of the attribution buckets keyed by entry PC.
func (p *Profile) Cells() map[uint64]ProfCell {
	out := make(map[uint64]ProfCell, len(p.cells))
	for pc, c := range p.cells {
		out[pc] = *c
	}
	return out
}

// TotalCycles sums the attributed cycles across all buckets. With
// profiling enabled for a whole run this equals TotalStats().Cycles.
func (p *Profile) TotalCycles() uint64 {
	var sum uint64
	for _, c := range p.cells {
		sum += c.Cycles
	}
	return sum
}

// TotalInstrs sums the attributed instructions across all buckets. Only
// U instructions are counted (trusted-handler dispatches add cycles but
// no instruction, matching Stats.Instrs).
func (p *Profile) TotalInstrs() uint64 {
	var sum uint64
	for _, c := range p.cells {
		sum += c.Instrs
	}
	return sum
}

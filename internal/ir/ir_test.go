package ir

import (
	"fmt"
	"testing"
)

// TestIROpTable: every op between OpInvalid and numOps has a table row
// with a mnemonic and a class, and the flag sets are exactly the ones the
// passes relied on before the table held them.
func TestIROpTable(t *testing.T) {
	set := func(ops ...Op) map[Op]bool {
		m := map[Op]bool{}
		for _, o := range ops {
			m[o] = true
		}
		return m
	}
	terminators := set(OpBr, OpCondBr, OpRet)
	noResult := set(OpStore, OpBr, OpCondBr, OpRet)
	mayFault := set(OpDiv, OpMod)
	commutative := set(OpAdd, OpMul, OpAnd, OpOr, OpXor)
	names := map[string]Op{}
	for op := OpInvalid + 1; op < numOps; op++ {
		row := opTable[op]
		if row.name == "" || row.class == ClassInvalid {
			t.Errorf("op %d has no table row", op)
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("ops %d and %d share the mnemonic %q", prev, op, row.name)
		}
		names[row.name] = op
		if got := op.IsTerminator(); got != terminators[op] {
			t.Errorf("%v.IsTerminator() = %v", op, got)
		}
		if got := op.HasResult(); got == noResult[op] {
			t.Errorf("%v.HasResult() = %v", op, got)
		}
		if got := op.MayFault(); got != mayFault[op] {
			t.Errorf("%v.MayFault() = %v", op, got)
		}
		if got := op.Commutative(); got != commutative[op] {
			t.Errorf("%v.Commutative() = %v", op, got)
		}
		if op.Commutative() && op.Class() != ClassIntBin {
			t.Errorf("%v is commutative but not an integer binop", op)
		}
	}
	for _, op := range []Op{OpInvalid, numOps} {
		if op.Class() != ClassInvalid || op.HasResult() || op.IsTerminator() || op.MayFault() ||
			op.Commutative() || op.String() != fmt.Sprintf("op?%d", op) {
			t.Errorf("undefined op %d has table facts", op)
		}
	}
}

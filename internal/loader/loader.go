// Package loader maps a linked image into a fresh machine, populates the
// externals table with trusted-runtime handler addresses, initializes the
// MPX bound registers / segment registers per thread, and sets up the
// per-thread stacks (§6's "Loading the U and T dlls").
package loader

import (
	"encoding/binary"
	"fmt"

	"confllvm/internal/asm"
	"confllvm/internal/link"
	"confllvm/internal/machine"
)

// TCanary is written into T's data region at load time; exploit tests
// assert that U can never read or overwrite it.
var TCanary = []byte("T-REGION-SECRET-CANARY-0123456789")

// HandlerAddr returns the dispatch address of externals-table slot i: the
// T-region PC the machine traps to the i-th trusted handler at. Exported
// so the observability plane (internal/obs) can symbolize profile PCs
// back to handler names with the same formula Load binds them by.
func HandlerAddr(l link.Layout, i int) uint64 {
	return l.TBase + 0x10000 + uint64(i)*0x100
}

// Load builds a machine, maps all regions, installs the image and binds
// the externals table to the given trusted handlers.
func Load(img *link.Image, handlers map[string]machine.Handler, mconf machine.Config) (*machine.Machine, error) {
	m := machine.New(mconf)
	l := img.Layout

	codeSize := (uint64(len(img.Code)) + 4095) &^ 4095
	if _, err := m.Mem.Map("u-code", l.CodeBase, codeSize, machine.PermR|machine.PermX); err != nil {
		return nil, err
	}
	if _, err := m.Mem.Map("u-public", l.PubBase, l.UsableSize, machine.PermR|machine.PermW); err != nil {
		return nil, err
	}
	if _, err := m.Mem.Map("u-private", l.PrivBase, l.UsableSize, machine.PermR|machine.PermW); err != nil {
		return nil, err
	}
	if _, err := m.Mem.Map("t-region", l.TBase, l.TSize, machine.PermR|machine.PermW); err != nil {
		return nil, err
	}
	// The externals table is read-only: U's stubs jump through it, so U
	// must never be able to rewrite it.
	tblSize := (uint64(8*len(img.Externals)) + 4095) &^ 4095
	if tblSize == 0 {
		tblSize = 4096
	}
	if _, err := m.Mem.Map("u-ext-table", l.ExtTableBase(), tblSize, machine.PermR); err != nil {
		return nil, err
	}

	if f := m.Mem.WriteBytesUnchecked(l.CodeBase, img.Code); f != nil {
		return nil, f
	}
	if f := m.Mem.WriteBytesUnchecked(l.PubBase, img.PubData); f != nil {
		return nil, f
	}
	if f := m.Mem.WriteBytesUnchecked(l.PrivBase, img.PrivData); f != nil {
		return nil, f
	}
	if f := m.Mem.WriteBytesUnchecked(l.TBase+64, TCanary); f != nil {
		return nil, f
	}

	// Bind externals: handler i lives at a distinct address in T; the
	// table slot holds that address and the machine dispatches to the Go
	// handler when pc reaches it.
	for i, name := range img.Externals {
		h, ok := handlers[name]
		if !ok {
			return nil, fmt.Errorf("loader: no trusted handler for extern %q", name)
		}
		addr := HandlerAddr(l, i)
		m.Handlers[addr] = h
		var slot [8]byte
		binary.LittleEndian.PutUint64(slot[:], addr)
		if f := m.Mem.WriteBytesUnchecked(img.ExternalSlotAddr(i), slot[:]); f != nil {
			return nil, f
		}
	}
	// Register the code region for decode tracing now that every image
	// byte is in place (unchecked writes flush existing traces, so this
	// must come last). Decode itself stays lazy, per PC.
	if f := m.RegisterCode(l.CodeBase); f != nil {
		return nil, f
	}
	return m, nil
}

// FuncByPtr resolves a function-pointer value (as produced by RelFuncPtr)
// back to its symbol.
func FuncByPtr(img *link.Image, ptr uint64) *link.FuncSym {
	for _, f := range img.Funcs {
		if f.Ptr(img.Config.CFI) == ptr {
			return f
		}
	}
	return nil
}

// SpawnThread creates a machine thread running fn(arg). The thread gets
// the next stack slot in both regions; its return lands on the exit shim
// matching fn's return taint.
func SpawnThread(m *machine.Machine, img *link.Image, fn *link.FuncSym, arg uint64) (*machine.Thread, error) {
	l := img.Layout
	tid := len(m.Threads)
	if uint64(tid+1)*l.ThreadStack > l.StackArea {
		return nil, fmt.Errorf("loader: out of stack area for thread %d", tid)
	}
	lo, hi := l.StackBounds(l.PubBase, tid)
	rsp := hi - 64 // small top pad, keeps pushes inside the stack

	t := m.NewThread(fn.Entry, rsp, lo, hi)
	t.FS = l.PubBase
	t.GS = l.PrivBase
	t.Bnd[asm.BND0] = machine.BndRange{Lo: l.PubBase, Hi: l.PubBase + l.UsableSize - 1}
	if img.Config.SeparateStacks || img.Config.IgnoreTaint {
		t.Bnd[asm.BND1] = machine.BndRange{Lo: l.PrivBase, Hi: l.PrivBase + l.UsableSize - 1}
	} else {
		// Single-stack ablation: private stack data lives in the public
		// region, so the private bound covers all of U's memory.
		t.Bnd[asm.BND1] = machine.BndRange{Lo: l.PubBase, Hi: l.PrivBase + l.UsableSize - 1}
	}
	t.Regs[asm.ArgRegs[0]] = arg

	// Push the return address: the exit shim matching fn's return taint.
	if f := t.Push(img.ExitShim[fn.RetBit&1]); f != nil {
		return nil, f
	}
	return t, nil
}

// Start spawns the main thread.
func Start(m *machine.Machine, img *link.Image) (*machine.Thread, error) {
	main := img.Func("main")
	if main == nil {
		return nil, fmt.Errorf("loader: image has no main")
	}
	return SpawnThread(m, img, main, 0)
}

package verify

import (
	"sort"
	"sync"
	"sync/atomic"

	"confllvm/internal/asm"
)

// procResult is the verdict of one independently checked procedure.
type procResult struct {
	insts    int
	stub     bool
	usedRets []int
	err      *Error
}

// run drives the per-procedure checks — serially or over a worker pool —
// and then performs the whole-image passes (exit-shim legitimization,
// stray-magic detection) that need every procedure's verdict.
//
// Determinism invariant: the verdict, the reported error and Stats are
// identical for every Options.Parallel value. Procedures are independent
// (checkOne never mutates the verifier), so the only scheduling-sensitive
// quantity is *which* failing procedure is seen first; the pool resolves
// that by always reporting the failure of the lowest-offset entry — which
// is exactly the error the serial sorted sweep hits first.
func (v *verifier) run() (Stats, error) {
	v.scanMagic()

	entries := make([]int, 0, len(v.mcallOffs))
	for off := range v.mcallOffs {
		entries = append(entries, off)
	}
	sort.Ints(entries)

	// spanEnd(i) is the end of entry i's span: the next entry's magic
	// word, or the end of code for the last procedure.
	spanEnd := func(i int) int {
		if i+1 < len(entries) {
			return entries[i+1]
		}
		return len(v.code)
	}

	results := make([]procResult, len(entries))
	workers := v.opts.Parallel
	if workers > len(entries) {
		workers = len(entries)
	}
	if workers <= 1 {
		for i, off := range entries {
			results[i] = v.checkOne(off, spanEnd(i))
			if results[i].err != nil {
				return Stats{}, results[i].err
			}
		}
	} else {
		// minErr is the lowest entry index known to fail (len(entries)
		// while none has). Workers skip indexes above it — those can never
		// be the reported error — and shrink it with a CAS loop when they
		// find an earlier failure.
		var next atomic.Int64
		minErr := atomic.Int64{}
		minErr.Store(int64(len(entries)))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(entries) {
						return
					}
					if int64(i) > minErr.Load() {
						continue // a lower-offset proc already failed
					}
					r := v.checkOne(entries[i], spanEnd(i))
					results[i] = r
					if r.err != nil {
						for {
							cur := minErr.Load()
							if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
								break
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		if m := minErr.Load(); m < int64(len(entries)) {
			return Stats{}, results[m].err
		}
	}

	var stats Stats
	used := make(map[int]bool, len(v.mcallOffs)+len(v.mretOffs))
	for _, off := range entries {
		used[off] = true // entry magic words are legitimate
	}
	for i := range results {
		r := &results[i]
		stats.Funcs++
		stats.Insts += r.insts
		if r.stub {
			stats.Stubs++
		}
		for _, rs := range r.usedRets {
			used[rs] = true
		}
	}

	// Exit shims: MRet word immediately followed by exit.
	mrets := make([]int, 0, len(v.mretOffs))
	for off := range v.mretOffs {
		mrets = append(mrets, off)
	}
	sort.Ints(mrets)
	for _, off := range mrets {
		if used[off] {
			continue
		}
		if inst, _, err := asm.Decode(v.code, off+8); err == nil && inst.Op == asm.OpExit {
			used[off] = true
		}
	}

	// Any magic occurrence we did not legitimize is suspicious. The
	// offsets are swept in sorted order so the reported stray is the
	// lowest one — byte-stable output (the old map-order sweep was not).
	for _, off := range entries {
		if !used[off] {
			return Stats{}, &Error{off, "stray MCall magic word"}
		}
	}
	for _, off := range mrets {
		if !used[off] {
			return Stats{}, &Error{off, "stray MRet magic word"}
		}
	}
	return stats, nil
}

// checkOne disassembles and checks the procedure whose MCall magic word
// is at magicOff. It reads only the immutable verifier context, so any
// number of checkOne calls may run concurrently. spanEnd, the next
// procedure's magic word (or the end of code), sizes the decode buffers.
func (v *verifier) checkOne(magicOff, spanEnd int) procResult {
	p, err := v.disassemble(magicOff, spanEnd)
	if err == nil && !p.isStub {
		err = v.checkProc(p)
	}
	r := procResult{insts: len(p.insts), stub: p.isStub, usedRets: p.usedRets}
	if err != nil {
		verr, ok := err.(*Error)
		if !ok {
			// Should not happen: every rejection is an *Error.
			verr = &Error{magicOff, err.Error()}
		}
		r.err = verr
	}
	return r
}

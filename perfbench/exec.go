package main

import (
	"fmt"
	"time"

	"confllvm"
	"confllvm/internal/loader"
	"confllvm/internal/machine"
)

// execute loads and runs an artifact: confllvm.Prepare (the loader layer)
// then Prepared.Finish (the machine layer). It returns the result and the
// host time of both together.
//
// With a tracer, the operation gets a root span named kind with
// "<kind>/loader" and "<kind>/machine" children, and every trusted-runtime
// handler is wrapped before Finish so each call opens a
// "<kind>/trt/<extern>" span under the machine span. Wrapping only times
// the call; the simulated run is unchanged.
func execute(art *confllvm.Artifact, w *confllvm.World, tr *Tracer, kind string) (*confllvm.Result, int64, error) {
	if tr == nil {
		start := time.Now()
		p, err := confllvm.Prepare(art, w, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("load: %w", err)
		}
		res := p.Finish()
		return res, time.Since(start).Nanoseconds(), nil
	}

	op := tr.NewOp()
	start := time.Now()
	root := tr.Begin(kind, -1, op, false)
	ls := tr.Begin(kind+"/loader", root, op, true)
	p, err := confllvm.Prepare(art, w, nil)
	tr.End(ls)
	if err != nil {
		tr.End(root)
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	var ms int32
	img := art.Image
	handlers := p.Machine().Handlers
	for i, ext := range img.Externals {
		addr := loader.HandlerAddr(img.Layout, i)
		h, name := handlers[addr], kind+"/trt/"+ext
		handlers[addr] = func(m *machine.Machine, t *machine.Thread) *machine.Fault {
			s := tr.Begin(name, ms, op, false)
			f := h(m, t)
			tr.End(s)
			return f
		}
	}
	ms = tr.Begin(kind+"/machine", root, op, true)
	res := p.Finish()
	tr.End(ms)
	tr.End(root)
	return res, time.Since(start).Nanoseconds(), nil
}

// handlerSim accumulates the simulated cost of trusted calls per handler
// name, fed by World.Observe.
type handlerSim map[string]*simCount

type simCount struct{ calls, cycles uint64 }

func (h handlerSim) observe(name string, start, end uint64) {
	c := h[name]
	if c == nil {
		c = &simCount{}
		h[name] = c
	}
	c.calls++
	c.cycles += end - start
}

// Package cfg analyzes a control-flow graph over dense node IDs: the
// immediate dominators (Cooper, Harvey & Kennedy, "A Simple, Fast
// Dominance Algorithm", 2001) and the natural loops, their nesting and
// each node's loop depth; and InsertPreheaders, which gives every loop a
// preheader: a node outside the loop whose one successor is the head and
// which is the head's one predecessor outside the loop.
//
// A natural loop is the set of nodes of a back edge t -> h, an edge whose
// head h dominates its tail t: h itself and every node that reaches t
// without passing through h. Back edges with one head form one loop, and
// two loops are either disjoint or nested.
//
// miniC has no goto and no switch, so every CFG irgen builds is
// reducible: every retreating edge of a depth-first search is a back
// edge. Analyze asserts that and does not handle irreducible loops.
package cfg

import "slices"

// Loops is the analysis of one graph whose entry is node 0. A node the
// entry does not reach has no dominator and is in no loop.
type Loops struct {
	// Idom is each node's immediate dominator: Idom[0] is 0, and a node
	// the entry does not reach has -1.
	Idom []int
	// Header is the head of the innermost loop containing each node, or
	// -1. A loop head is in its own loop.
	Header []int
	// Parent is, for a loop head, the head of the next enclosing loop,
	// or -1; it is -1 for every other node.
	Parent []int
	// Depth is the number of loops containing each node.
	Depth []int
	// RPO lists the reachable nodes in reverse postorder: a node comes
	// after its immediate dominator, and a loop head before the other
	// nodes of its loop.
	RPO []int
	// Preheader is, after InsertPreheaders, each loop head's preheader,
	// and -1 for every other node. Analyze sets it to -1 everywhere.
	Preheader []int

	buf   []int // backing store of the results and scratch tables
	phBuf []int // InsertPreheaders' heads, the new nodes' successor lists
	grown []int // InsertPreheaders' backing store of the grown results
}

// Analyze computes the dominators and the loop nest of the graph whose
// node i has the successors succs[i], reusing l's storage: the results of
// an earlier call are overwritten. It panics on an irreducible graph.
func (l *Loops) Analyze(succs [][]int) {
	n, e := len(succs), 0
	for _, ss := range succs {
		e += len(ss)
	}
	// One array holds the four results and every scratch table: the
	// postorder numbers, DFS states and stack, the reverse postorder, the
	// retreating edges, the predecessors and the loop walk's worklist.
	size := 6*n + n + n + 2*n + 2*e + (n + 1) + e + n + (e + n)
	if cap(l.buf) < size {
		l.buf = make([]int, size)
	}
	ints := l.buf[:size]
	clear(ints)
	take := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	l.Idom, l.Header, l.Parent, l.Depth = take(n), take(n), take(n), take(n)
	l.Preheader, l.RPO = take(n), take(n)[:0]
	for i := range l.Idom {
		l.Idom[i], l.Header[i], l.Parent[i], l.Preheader[i] = -1, -1, -1, -1
	}
	if n == 0 {
		return
	}
	po, state, stack := take(n), take(n), take(2 * n)[:0]
	rpo, retreating := l.RPO, take(2 * e)[:0]
	predOff, preds, fill, work := take(n+1), take(e), take(n), take(e + n)[:0]

	// Iterative depth-first search from the entry: postorder numbers,
	// the reverse postorder, and the retreating edges (to a node still on
	// the stack), which must all be back edges. A stack frame is a node
	// and the index of its next successor.
	const (
		unseen = iota
		onStack
		done
	)
	stack = append(stack, 0, 0)
	state[0] = onStack
	npo := 0
	for len(stack) > 0 {
		k := len(stack) - 2
		v, next := stack[k], stack[k+1]
		if next < len(succs[v]) {
			s := succs[v][next]
			stack[k+1]++
			switch state[s] {
			case unseen:
				state[s] = onStack
				stack = append(stack, s, 0)
			case onStack:
				retreating = append(retreating, v, s)
			}
			continue
		}
		state[v] = done
		po[v] = npo
		npo++
		rpo = append(rpo, v)
		stack = stack[:k]
	}
	slices.Reverse(rpo)
	l.RPO = rpo

	// Predecessors of the reachable nodes.
	for v, ss := range succs {
		if state[v] == done {
			for _, s := range ss {
				predOff[s+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	copy(fill, predOff[:n])
	for v, ss := range succs {
		if state[v] == done {
			for _, s := range ss {
				preds[fill[s]] = v
				fill[s]++
			}
		}
	}

	// Cooper-Harvey-Kennedy: iterate over the reverse postorder until no
	// immediate dominator changes, intersecting along the dominator tree
	// by postorder number.
	idom := l.Idom
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, v := range rpo[1:] {
			nd := -1
			for _, p := range preds[predOff[v]:predOff[v+1]] {
				if idom[p] < 0 {
					continue
				}
				if nd < 0 {
					nd = p
					continue
				}
				a, b := p, nd
				for a != b {
					for po[a] < po[b] {
						a = idom[a]
					}
					for po[b] < po[a] {
						b = idom[b]
					}
				}
				nd = a
			}
			if idom[v] != nd {
				idom[v] = nd
				changed = true
			}
		}
	}

	// Natural loops. Every retreating edge must be a back edge. Walking
	// the heads in reverse postorder, innermost last, each loop's body is
	// found backwards from its back edges' tails; a node not yet in a
	// loop joins this one, and a node already in one brings in the
	// outermost loop around it, which then nests in this one. The walk
	// continues from that loop's head, whose predecessors outside it are
	// this loop's nodes too.
	if len(retreating) == 0 {
		return
	}
	const head = done + 1 // state of a loop head
	for i := 0; i < len(retreating); i += 2 {
		if !l.Dominates(retreating[i+1], retreating[i]) {
			panic("cfg: irreducible control flow")
		}
		state[retreating[i+1]] = head
	}
	for i := len(rpo) - 1; i >= 0; i-- {
		h := rpo[i]
		if state[h] != head {
			continue
		}
		work = work[:0]
		for i := 0; i < len(retreating); i += 2 {
			if t := retreating[i]; retreating[i+1] == h && t != h {
				work = append(work, t)
			}
		}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			if v == h {
				continue
			}
			if hv := l.Header[v]; hv >= 0 {
				// Lift v to the outermost loop found so far around it.
				for l.Parent[hv] >= 0 {
					hv = l.Parent[hv]
				}
				if hv == h {
					continue // already in this loop
				}
				l.Parent[hv] = h
				v = hv
			} else {
				l.Header[v] = h
			}
			work = append(work, preds[predOff[v]:predOff[v+1]]...)
		}
		l.Header[h] = h
	}
	for _, v := range rpo {
		d := 0
		if h := l.Header[v]; h >= 0 {
			for d = 1; l.Parent[h] >= 0; d++ {
				h = l.Parent[h]
			}
		}
		l.Depth[v] = d
	}
}

// InLoop reports whether node v is in the loop whose head is h.
func (l *Loops) InLoop(v, h int) bool {
	for hv := l.Header[v]; hv >= 0; hv = l.Parent[hv] {
		if hv == h {
			return true
		}
	}
	return false
}

// InsertPreheaders gives every loop of succs, the graph l has analyzed,
// a preheader, and returns the grown graph, which l then describes. A
// head whose one edge from a reachable node outside its loop comes from
// a node with no other successor keeps that node as its preheader. Any
// other head h gets a new node p, numbered from len(succs) up, whose one
// successor is h; every edge into h from a reachable node outside the
// loop moves to p, rewriting those successor lists in place. The new
// nodes' lists share storage that l reuses on the next call.
//
// The loops keep their nodes, and p joins the loops around h's: any loop
// that contains h without being headed by it contains every predecessor
// of h, so p as well. Every other node keeps its immediate dominator,
// except that h's is now p, whose own is h's old one. A head with no
// edge from outside its loop (only the entry can be one) gets no
// preheader.
func (l *Loops) InsertPreheaders(succs [][]int) [][]int {
	n := len(succs)
	outside := func(v, h int) bool { return l.Idom[v] >= 0 && !l.InLoop(v, h) }
	// Preheader holds, per head, the one outside predecessor seen so far
	// (-1 none) or -2 when the head needs a new node.
	ph := l.Preheader
	for _, v := range l.RPO {
		for _, h := range succs[v] {
			if l.Header[h] != h || !outside(v, h) {
				continue
			}
			if ph[h] == -1 && len(succs[v]) == 1 {
				ph[h] = v
			} else {
				ph[h] = -2
			}
		}
	}
	l.phBuf = l.phBuf[:0]
	for _, h := range l.RPO {
		if ph[h] == -2 {
			ph[h] = n + len(l.phBuf)
			l.phBuf = append(l.phBuf, h)
		}
	}
	k := len(l.phBuf)
	if k == 0 {
		return succs
	}
	for _, v := range l.RPO {
		for i, h := range succs[v] {
			if l.Header[h] == h && ph[h] >= n && outside(v, h) {
				succs[v][i] = ph[h]
			}
		}
	}
	heads := l.phBuf[:k:k]
	for i := range heads {
		succs = append(succs, heads[i:i+1:i+1])
	}

	// Grow the results in a second buffer, so that the heads above, now
	// the new nodes' successor lists, stay as they are.
	m := n + k
	if cap(l.grown) < 6*m {
		l.grown = make([]int, 6*m)
	}
	buf := l.grown[:6*m]
	take := func(old []int) []int {
		s := buf[:m:m]
		buf = buf[m:]
		copy(s, old)
		return s
	}
	l.Idom, l.Header, l.Parent, l.Depth, l.Preheader = take(l.Idom), take(l.Header), take(l.Parent), take(l.Depth), take(ph)
	rpo := buf[: 0 : len(l.RPO)+k]
	for _, v := range l.RPO {
		if p := l.Preheader[v]; p >= n {
			h := v
			l.Idom[p], l.Header[p], l.Parent[p], l.Depth[p], l.Preheader[p] = l.Idom[h], l.Parent[h], -1, l.Depth[h]-1, -1
			l.Idom[h] = p
			rpo = append(rpo, p)
		}
		rpo = append(rpo, v)
	}
	l.RPO = rpo
	return succs
}

// Dominates reports whether node a dominates node b, both reachable.
func (l *Loops) Dominates(a, b int) bool {
	for b != a {
		if b == 0 {
			return false
		}
		b = l.Idom[b]
	}
	return true
}

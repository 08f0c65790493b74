package cfg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// structured builds random reducible graphs the way irgen does: from
// sequences, ifs, while and do-while loops, breaks, continues and
// returns. Code after a break, continue or return starts in a node
// nothing reaches.
type structured struct {
	r     *rand.Rand
	succs [][]int
}

func (g *structured) node() int {
	g.succs = append(g.succs, nil)
	return len(g.succs) - 1
}

func (g *structured) edge(a, b int) { g.succs[a] = append(g.succs[a], b) }

// block emits up to n statements from cur and returns the node control
// leaves them in; brk and cont are the enclosing loop's exit and head,
// or -1 outside a loop.
func (g *structured) block(cur, n, depth, brk, cont int) int {
	for i := 0; i < n && len(g.succs) < 60; i++ {
		cur = g.stmt(cur, depth, brk, cont)
	}
	return cur
}

func (g *structured) stmt(cur, depth, brk, cont int) int {
	k := g.r.Intn(10)
	if depth > 3 {
		k = 0
	}
	switch k {
	case 0, 1: // straight-line code ending in a fall-through
		next := g.node()
		g.edge(cur, next)
		return next
	case 2, 3: // if, with or without an else
		then, join := g.node(), g.node()
		g.edge(cur, then)
		g.edge(g.block(then, 1+g.r.Intn(3), depth+1, brk, cont), join)
		if g.r.Intn(2) == 0 {
			els := g.node()
			g.edge(cur, els)
			g.edge(g.block(els, 1+g.r.Intn(3), depth+1, brk, cont), join)
		} else {
			g.edge(cur, join)
		}
		return join
	case 4, 5: // while: the head tests, the body jumps back
		head, body, exit := g.node(), g.node(), g.node()
		g.edge(cur, head)
		g.edge(head, body)
		g.edge(head, exit)
		g.edge(g.block(body, 1+g.r.Intn(3), depth+1, exit, head), head)
		return exit
	case 6: // do-while: the latch tests
		body, latch, exit := g.node(), g.node(), g.node()
		g.edge(cur, body)
		g.edge(g.block(body, 1+g.r.Intn(3), depth+1, exit, latch), latch)
		g.edge(latch, body)
		g.edge(latch, exit)
		return exit
	case 7: // break or continue, or a return outside a loop
		if brk >= 0 {
			if g.r.Intn(2) == 0 {
				g.edge(cur, brk)
			} else {
				g.edge(cur, cont)
			}
		}
		return g.node()
	default: // a conditional break out of the loop
		next := g.node()
		g.edge(cur, next)
		if brk >= 0 {
			g.edge(cur, brk)
		}
		return next
	}
}

func randomReducible(seed int64) [][]int {
	g := &structured{r: rand.New(rand.NewSource(seed))}
	g.block(g.node(), 1+g.r.Intn(6), 0, -1, -1)
	return g.succs
}

// bruteForce computes Loops from definitions by reachability: d
// dominates v when every path from the entry to v passes through d, the
// loop of a back edge t -> h is h and every node reaching t on a path
// that avoids h, and loops of one head are one loop.
func bruteForce(succs [][]int) *Loops {
	n := len(succs)
	reach := func(avoid int) []bool {
		seen := make([]bool, n)
		if avoid == 0 {
			return seen
		}
		stack := []int{0}
		seen[0] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range succs[v] {
				if s != avoid && !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return seen
	}
	reachable := reach(-1)
	dom := make([][]bool, n) // dom[d][v]: d dominates v
	for d := 0; d < n; d++ {
		without := reach(d)
		dom[d] = make([]bool, n)
		for v := 0; v < n; v++ {
			dom[d][v] = reachable[d] && reachable[v] && !without[v]
		}
	}
	l := &Loops{Idom: make([]int, n), Header: make([]int, n), Parent: make([]int, n), Depth: make([]int, n)}
	for v := 0; v < n; v++ {
		l.Idom[v], l.Header[v], l.Parent[v] = -1, -1, -1
		if !reachable[v] {
			continue
		}
		if v == 0 {
			l.Idom[v] = 0
			continue
		}
		// The immediate dominator is the strict dominator that all the
		// others dominate.
		for d := 0; d < n; d++ {
			if d == v || !dom[d][v] {
				continue
			}
			closest := true
			for e := 0; e < n; e++ {
				if e != v && e != d && dom[e][v] && !dom[e][d] {
					closest = false
				}
			}
			if closest {
				l.Idom[v] = d
			}
		}
	}
	preds := make([][]int, n)
	for v, ss := range succs {
		for _, s := range ss {
			preds[s] = append(preds[s], v)
		}
	}
	body := map[int][]bool{}
	for t, ss := range succs {
		for _, h := range ss {
			if !reachable[t] || !dom[h][t] {
				continue
			}
			in := body[h]
			if in == nil {
				in = make([]bool, n)
				in[h] = true
				body[h] = in
			}
			stack := []int{t}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if in[v] || !reachable[v] {
					continue
				}
				in[v] = true
				stack = append(stack, preds[v]...)
			}
		}
	}
	size := func(h int) int {
		c := 0
		for _, b := range body[h] {
			if b {
				c++
			}
		}
		return c
	}
	// innermost returns the head of the smallest loop containing v, other
	// than skip's.
	innermost := func(v, skip int) int {
		best := -1
		for h, in := range body {
			if h != skip && in[v] && (best < 0 || size(h) < size(best)) {
				best = h
			}
		}
		return best
	}
	for v := 0; v < n; v++ {
		for _, in := range body {
			if in[v] {
				l.Depth[v]++
			}
		}
		l.Header[v] = innermost(v, -1)
	}
	for h := range body {
		l.Parent[h] = innermost(h, h)
	}
	return l
}

// TestAnalyzeMatchesBruteForce compares Analyze with the definitions on
// seeded random reducible graphs: immediate dominators, each node's
// innermost loop, the loop nest and loop depths.
func TestAnalyzeMatchesBruteForce(t *testing.T) {
	loops := 0
	var got Loops // reused, as the register allocator reuses it
	for seed := int64(0); seed < 400; seed++ {
		succs := randomReducible(seed)
		got.Analyze(succs)
		if err := compare(&got, bruteForce(succs)); err != nil {
			t.Fatalf("seed %d: %v\nsuccs %v", seed, err, succs)
		}
		for v, h := range got.Header {
			if h == v {
				loops++
			}
		}
	}
	if loops < 400 {
		t.Errorf("only %d loops in 400 graphs: the generator is too tame", loops)
	}
}

// threaded returns succs with every edge into a node whose one successor
// is another node moved to that successor, the way opt's CFG
// simplification threads branches through empty blocks. The entry stays.
// A loop head of the result often has several predecessors outside its
// loop, or one with other successors.
func threaded(succs [][]int) [][]int {
	out := make([][]int, len(succs))
	for v, ss := range succs {
		out[v] = slices.Clone(ss)
		for i, s := range ss {
			for hops := 0; s != 0 && len(succs[s]) == 1 && succs[s][0] != s && hops < len(succs); hops++ {
				s = succs[s][0]
			}
			out[v][i] = s
		}
	}
	return out
}

// TestInsertPreheaders grows the graphs of TestAnalyzeMatchesBruteForce,
// as built and threaded, with preheaders and checks them against the
// definition: each loop head
// has exactly one predecessor outside its loop, its Preheader, whose only
// successor is the head. The old nodes keep their loop membership and
// depth, and their immediate dominators apart from the new nodes: a head
// whose preheader is new is dominated by it, and it by the head's old
// dominator. The grown graph's analysis must match brute force too.
func TestInsertPreheaders(t *testing.T) {
	added := 0
	var l Loops
	for seed := int64(0); seed < 800; seed++ {
		succs := randomReducible(seed / 2)
		if seed%2 == 1 {
			succs = threaded(succs)
		}
		before := bruteForce(succs)
		n := len(succs)
		l.Analyze(succs)
		succs = l.InsertPreheaders(succs)
		added += len(succs) - n
		if err := compare(&l, bruteForce(succs)); err != nil {
			t.Fatalf("seed %d: grown graph: %v\nsuccs %v", seed, err, succs)
		}
		preds := make([][]int, len(succs))
		for v, ss := range succs {
			if l.Idom[v] >= 0 {
				for _, s := range ss {
					preds[s] = append(preds[s], v)
				}
			}
		}
		for v := 0; v < n; v++ {
			if l.Header[v] != before.Header[v] || l.Depth[v] != before.Depth[v] ||
				(l.Header[v] == v) != (before.Header[v] == v) || l.Parent[v] != before.Parent[v] {
				t.Fatalf("seed %d: node %d changed loops", seed, v)
			}
			idom := l.Idom[v]
			if idom >= n {
				if l.Preheader[v] != idom {
					t.Fatalf("seed %d: node %d is dominated by new node %d, not its preheader", seed, v, idom)
				}
				idom = l.Idom[idom]
			}
			if idom != before.Idom[v] {
				t.Fatalf("seed %d: node %d idom %d, was %d", seed, v, idom, before.Idom[v])
			}
			if l.Header[v] != v {
				if l.Preheader[v] != -1 {
					t.Fatalf("seed %d: node %d is no head but has preheader %d", seed, v, l.Preheader[v])
				}
				continue
			}
			var out []int
			for _, p := range preds[v] {
				if !l.InLoop(p, v) {
					out = append(out, p)
				}
			}
			p := l.Preheader[v]
			if len(out) != 1 || out[0] != p {
				t.Fatalf("seed %d: head %d has outside predecessors %v, preheader %d", seed, v, out, p)
			}
			if !slices.Equal(succs[p], []int{v}) {
				t.Fatalf("seed %d: preheader %d of %d has successors %v", seed, p, v, succs[p])
			}
		}
		for p := n; p < len(succs); p++ {
			if h := succs[p][0]; l.Preheader[h] != p {
				t.Fatalf("seed %d: new node %d is not the preheader of %d", seed, p, h)
			}
		}
	}
	if added == 0 {
		t.Error("no graph needed a new preheader: the generator is too tame")
	}
	t.Logf("%d preheaders added", added)
}

// TestAnalyzeNested pins a hand-built nest: a while loop (1) holding a
// do-while (3, 4) and a self loop (5), after an unreachable node (7).
func TestAnalyzeNested(t *testing.T) {
	succs := [][]int{
		0: {1},
		1: {2, 6},
		2: {3},
		3: {4},
		4: {3, 5},
		5: {5, 1},
		6: {},
		7: {1},
	}
	var l Loops
	l.Analyze(succs)
	want := Loops{
		Idom:   []int{0, 0, 1, 2, 3, 4, 1, -1},
		Header: []int{-1, 1, 1, 3, 3, 5, -1, -1},
		Parent: []int{-1, -1, -1, 1, -1, 1, -1, -1},
		Depth:  []int{0, 1, 1, 2, 2, 2, 0, 0},
	}
	if err := compare(&l, &want); err != nil {
		t.Error(err)
	}
}

func compare(got, want *Loops) error {
	for _, c := range []struct {
		name      string
		got, want []int
	}{{"Idom", got.Idom, want.Idom}, {"Header", got.Header, want.Header},
		{"Parent", got.Parent, want.Parent}, {"Depth", got.Depth, want.Depth}} {
		if !slices.Equal(c.got, c.want) {
			return fmt.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	return nil
}

// TestAnalyzeIrreducible: a loop entered at two nodes has a retreating
// edge whose head does not dominate its tail, which Analyze rejects.
func TestAnalyzeIrreducible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Analyze accepted an irreducible graph")
		}
	}()
	new(Loops).Analyze([][]int{{1, 2}, {2}, {1}})
}

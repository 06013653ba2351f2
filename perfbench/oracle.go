package main

import (
	"fmt"
	"math"
	"sort"
)

// adjacency is a plain-Go graph built from a generator's edge stream, the
// way graph.Builder stores it: an undirected edge appends each endpoint to
// the other's list, a directed edge appends dst to src's out-list and src
// to dst's in-list, and duplicate edges are kept.
type adjacency struct {
	out [][]uint32
	in  [][]uint32 // directed graphs only

	stamp []uint32 // BFS scratch: stamp[v] == cur marks v visited
	cur   uint32
	queue []uint32
}

func newAdjacency(n int, directed bool) *adjacency {
	a := &adjacency{out: make([][]uint32, n), stamp: make([]uint32, n)}
	if directed {
		a.in = make([][]uint32, n)
	}
	return a
}

func (a *adjacency) addEdge(u, v uint64) {
	a.out[u] = append(a.out[u], uint32(v))
	if a.in != nil {
		a.in[v] = append(a.in[v], uint32(u))
	} else {
		a.out[v] = append(a.out[v], uint32(u))
	}
}

// ball returns every node within hops of start, level by level. The slice
// is reused by the next call.
func (a *adjacency) ball(start uint64, hops int) []uint32 {
	a.cur++
	if a.cur == 0 { // stamp wrapped: clear it once
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.cur = 1
	}
	q := append(a.queue[:0], uint32(start))
	a.stamp[start] = a.cur
	lo := 0
	for hop := 0; hop < hops; hop++ {
		hi := len(q)
		for ; lo < hi; lo++ {
			for _, v := range a.out[q[lo]] {
				if a.stamp[v] != a.cur {
					a.stamp[v] = a.cur
					q = append(q, v)
				}
			}
		}
	}
	a.queue = q
	return q
}

// bfsLevels returns the hop distance of every node from source over
// out-edges, -1 for unreachable nodes.
func (a *adjacency) bfsLevels(source uint64) []int32 {
	lv := make([]int32, len(a.out))
	for i := range lv {
		lv[i] = -1
	}
	lv[source] = 0
	q := []uint32{uint32(source)}
	for i := 0; i < len(q); i++ {
		u := q[i]
		for _, v := range a.out[u] {
			if lv[v] < 0 {
				lv[v] = lv[u] + 1
				q = append(q, v)
			}
		}
	}
	return lv
}

// pageRank is the plain power iteration algo.PageRank implements: every
// rank starts at 1, and each of iters rounds sets
// r'(v) = 0.15 + 0.85·Σ r(u)/outdeg(u) over the in-edges u→v, where
// duplicate edges count toward both the sum and the out-degree.
func (a *adjacency) pageRank(iters int) []float64 {
	r := make([]float64, len(a.out))
	for i := range r {
		r[i] = 1
	}
	next := make([]float64, len(r))
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		for u, outs := range a.out {
			if len(outs) == 0 {
				continue
			}
			share := r[u] / float64(len(outs))
			for _, v := range outs {
				next[v] += share
			}
		}
		for i := range next {
			next[i] = 0.15 + 0.85*next[i]
		}
		r, next = next, r
	}
	return r
}

// sameSet reports whether got holds exactly the ids of want, with no
// duplicates.
func sameSet(got []uint64, want []uint32) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]uint64(nil), got...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	w := make([]uint64, len(want))
	for i, v := range want {
		w[i] = uint64(v)
	}
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// sameList reports whether got equals want element by element.
func sameList(got []uint64, want []uint32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != uint64(want[i]) {
			return false
		}
	}
	return true
}

// checkRanks compares PageRank output with the oracle at a maximum
// relative error of 1e-9.
func checkRanks(got map[uint64]float64, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("ranked %d vertices, want %d", len(got), len(want))
	}
	for v, w := range want {
		g, ok := got[uint64(v)]
		if !ok {
			return fmt.Errorf("vertex %d missing from the ranks", v)
		}
		if rel := math.Abs(g-w) / math.Abs(w); !(rel <= 1e-9) {
			return fmt.Errorf("vertex %d rank %.17g, want %.17g (relative error %.3g)", v, g, w, rel)
		}
	}
	return nil
}

// checkLevels compares BFS output with the oracle exactly.
func checkLevels(got map[uint64]float64, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("labelled %d vertices, want %d", len(got), len(want))
	}
	for v, w := range want {
		g, ok := got[uint64(v)]
		if !ok {
			return fmt.Errorf("vertex %d missing from the levels", v)
		}
		if g != float64(w) {
			return fmt.Errorf("vertex %d level %g, want %d", v, g, w)
		}
	}
	return nil
}

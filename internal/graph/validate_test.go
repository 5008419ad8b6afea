package graph

import (
	"fmt"
	"sort"
)

// Structural checks and diagnostics the tests use on graphs.

// TotalWeight returns the total vertex weight per constraint.
func (g *Graph) TotalWeight() []int64 {
	t := make([]int64, g.NC())
	for c, w := range g.VW {
		for _, x := range w {
			t[c] += int64(x)
		}
	}
	return t
}

// Validate checks CSR consistency and edge symmetry.
func (g *Graph) Validate() error {
	if len(g.Xadj) != g.N+1 {
		return fmt.Errorf("graph: xadj length %d for %d vertices", len(g.Xadj), g.N)
	}
	if int(g.Xadj[g.N]) != len(g.Adj) || len(g.Adj) != len(g.EW) {
		return fmt.Errorf("graph: adjacency arrays inconsistent")
	}
	for c := range g.VW {
		if len(g.VW[c]) != g.N {
			return fmt.Errorf("graph: constraint %d has %d weights", c, len(g.VW[c]))
		}
	}
	type edge struct{ u, v int32 }
	seen := make(map[edge]int32, len(g.Adj))
	for v := 0; v < g.N; v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adj[i]
			if u < 0 || int(u) >= g.N {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, u)
			}
			if u == int32(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			seen[edge{int32(v), u}] = g.EW[i]
		}
	}
	for e, w := range seen {
		if w2, ok := seen[edge{e.v, e.u}]; !ok || w2 != w {
			return fmt.Errorf("graph: edge (%d,%d) not symmetric", e.u, e.v)
		}
	}
	return nil
}

// Components returns the number of connected components (ignoring weights).
func (g *Graph) Components() int {
	comp := make([]int32, g.N)
	for i := range comp {
		comp[i] = -1
	}
	n := 0
	stack := make([]int32, 0, 64)
	for s := 0; s < g.N; s++ {
		if comp[s] >= 0 {
			continue
		}
		stack = append(stack[:0], int32(s))
		comp[s] = int32(n)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				if u := g.Adj[i]; comp[u] < 0 {
					comp[u] = int32(n)
					stack = append(stack, u)
				}
			}
		}
		n++
	}
	return n
}

// DegreeStats returns min, max and mean vertex degree (diagnostics).
func (g *Graph) DegreeStats() (min, max int, mean float64) {
	if g.N == 0 {
		return 0, 0, 0
	}
	degs := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		degs[v] = int(g.Xadj[v+1] - g.Xadj[v])
	}
	sort.Ints(degs)
	total := 0
	for _, d := range degs {
		total += d
	}
	return degs[0], degs[g.N-1], float64(total) / float64(g.N)
}

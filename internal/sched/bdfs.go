// Package sched implements the scheduling- and blocking-based locality
// systems the paper compares against (Section VII-C): HATS-style bounded
// depth-first traversal scheduling, software Propagation Blocking, and a
// PHI-style in-cache commutative-update coalescing model.
package sched

import "popt/internal/graph"

// BDFSOrder computes a Bounded Depth-First Search schedule over the
// vertices, the vertex-visit order HATS-BDFS (Mukkara et al., MICRO 2018)
// generates in hardware. Starting from each unvisited vertex in ID order,
// a DFS bounded at the given depth visits neighbors; community-structured
// graphs place related vertices consecutively, improving locality, while
// structure-less graphs gain nothing (Fig. 12b). The returned permutation
// is the outer-loop processing order for a pull kernel.
func BDFSOrder(g *graph.Graph, depthBound int) []graph.V {
	n := g.NumVertices()
	order := make([]graph.V, 0, n)
	visited := make([]bool, n)
	type frame struct {
		v     graph.V
		depth int
	}
	stack := make([]frame, 0, depthBound*4)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		stack = append(stack[:0], frame{graph.V(root), 0})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[f.v] {
				continue
			}
			visited[f.v] = true
			order = append(order, f.v)
			if f.depth >= depthBound {
				continue
			}
			// Push in reverse so low-ID neighbors are visited first.
			ns := g.Out.Neighs(f.v)
			for i := len(ns) - 1; i >= 0; i-- {
				if !visited[ns[i]] {
					stack = append(stack, frame{ns[i], f.depth + 1})
				}
			}
		}
	}
	return order
}

// IsPermutation reports whether order visits every vertex of an n-vertex
// graph exactly once (schedule validity).
func IsPermutation(order []graph.V, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if int(v) >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

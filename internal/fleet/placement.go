package fleet

import (
	"cmp"
	"slices"
)

// Placement policy: least-loaded first. Every node that is not draining is a
// candidate, ordered by open sessions, then by pool-resident bytes, then by
// the order the router knows the nodes in. A render context serves any frame
// size (splat.ContextPool is one stack), so no stream property enters the
// order; streams of one size spread evenly over the fleet. Everything is a
// pure function of the reported NodeLoads, so placement is deterministic
// given the same fleet view, and the router's fallback walk (admission
// rejections skip to the next candidate) is just the returned order.

// NodeLoad is the placement-relevant view of one node, distilled from its
// reported NodeStats by Router.reachableLoads.
type NodeLoad struct {
	OpenSessions  int
	ResidentBytes int64
	Draining      bool
}

// Candidates returns indices into loads in placement-preference order: every
// node that is not draining, by open sessions, then pool-resident bytes, ties
// kept in loads order. An empty result means no node can take the stream.
func Candidates(loads []NodeLoad) []int {
	var order []int
	for i, l := range loads {
		if !l.Draining {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(loads[a].OpenSessions, loads[b].OpenSessions); c != 0 {
			return c
		}
		return cmp.Compare(loads[a].ResidentBytes, loads[b].ResidentBytes)
	})
	return order
}

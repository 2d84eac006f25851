// Package mr is the maprange golden corpus: each function is a positive,
// negative, or suppressed case for the range-over-map check, which admits
// the collect-then-sort idiom and nothing else.
// "// want <check>" markers name the findings the harness expects on that
// line; lines without markers must stay clean.
package mr

import "sort"

func observe(string) {}

// CountValues is order-insensitive (commutative integer reductions), which
// the check does not try to prove: it carries a written justification.
func CountValues(m map[string]int) (n, sum int) {
	//ags:allow(maprange, integer count and sum: every visit order yields the same totals)
	for _, v := range m {
		n++
		sum += v
	}
	return n, sum
}

// CollectSorted appends keys and imposes a total order after the loop.
func CollectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CollectValuesIf appends the range value under a call-free condition and
// sorts through a sort.Interface conversion.
func CollectValuesIf(m map[string]int) []int {
	var vals []int
	for k, v := range m {
		if v > 0 && k != "" {
			vals = append(vals, v)
		}
	}
	sort.Sort(sort.IntSlice(vals))
	return vals
}

// SortedBefore sorts the slice before the loop fills it, which orders nothing.
func SortedBefore(m map[string]int) []string {
	var keys []string
	sort.Strings(keys)
	for k := range m { // want maprange
		keys = append(keys, k)
	}
	return keys
}

// SortedInClosure sorts inside a function literal that may never run.
func SortedInClosure(m map[string]int) func() []string {
	var keys []string
	for k := range m { // want maprange
		keys = append(keys, k)
	}
	return func() []string {
		sort.Strings(keys)
		return keys
	}
}

// CollectFirst admits a key only while the slice is empty: the sort that
// follows orders one arbitrary key.
func CollectFirst(m map[string]int) []string {
	var keys []string
	for k := range m { // want maprange
		if keys == nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// CollectDerived appends something computed from the key; the idiom is the
// bare key or value, so the check has no expression to reason about.
func CollectDerived(m map[string]int) []string {
	var keys []string
	for k := range m { // want maprange
		keys = append(keys, k+"!")
	}
	sort.Strings(keys)
	return keys
}

// CollectUnsorted leaks map iteration order into the returned slice.
func CollectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want maprange
		keys = append(keys, k)
	}
	return keys
}

// Copy writes through the range key, so every visit order builds the same
// map, but it is not the admitted idiom: without a directive it is a finding.
func Copy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m { // want maprange
		out[k] = v
	}
	return out
}

// Invert indexes by the range VALUE: duplicate values collide and the winner
// depends on iteration order.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m { // want maprange
		out[v] = k
	}
	return out
}

// AdmissionGuard is the pre-fix hot-set shape: the capacity condition reads
// state written inside the loop, so which keys are admitted depends on order.
func AdmissionGuard(freq map[int32]int, capN int) map[int32]bool {
	hot := make(map[int32]bool, capN)
	for id, f := range freq { // want maprange
		if f >= 2 && len(hot) < capN {
			hot[id] = true
		}
	}
	return hot
}

// FloatSum accumulates floats, which is not associative.
func FloatSum(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want maprange
		s += v
	}
	return s
}

// CallInLoop calls out of the loop body; the callee may observe order.
func CallInLoop(m map[string]int) {
	for k := range m { // want maprange
		observe(k)
	}
}

// EarlyBreak stops after an order-dependent number of iterations.
func EarlyBreak(m map[string]int) {
	n := 0
	for k := range m { // want maprange
		if k == "stop" {
			break
		}
		n++
	}
	_ = n
}

// FirstPositive returns whichever positive entry the runtime visits first.
func FirstPositive(m map[string]int) string {
	for k, v := range m { // want maprange
		if v > 0 {
			return k
		}
	}
	return ""
}

// PruneZero deletes through the range key, which the spec guarantees is safe
// and order-independent; not the admitted idiom, so a finding.
func PruneZero(m map[string]int) {
	for k, v := range m { // want maprange
		if v == 0 {
			delete(m, k)
		}
	}
}

// AnyNegative breaks only out of the inner slice loop; the outer map loop
// still visits every entry, and the count is a commutative reduction. Not
// the admitted idiom, so a finding.
func AnyNegative(m map[string][]int) int {
	n := 0
	for _, vs := range m { // want maprange
		for _, v := range vs {
			if v < 0 {
				n++
				break
			}
		}
	}
	return n
}

// MaxValue is genuinely order-insensitive, so it carries a written
// justification.
func MaxValue(m map[string]int) int {
	best := 0
	//ags:allow(maprange, max reduction over ints: every visit order yields the same maximum)
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

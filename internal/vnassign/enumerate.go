package vnassign

import (
	"strconv"
	"strings"

	"minvn/internal/analysis"
	"minvn/internal/relation"
)

// EnumerateAssignments lists distinct minimal VN assignments — the
// paper artifact's "possible virtual network assignments" output. Two
// assignments are distinct when they induce different partitions of
// the conflict-graph messages (color permutations are canonicalized
// away); the unconstrained messages are completed identically in every
// result, so the variety reflects genuine choices the designer has.
//
// Returns at most limit assignments (0 = a default of 32). For Class 2
// protocols the result is nil.
func EnumerateAssignments(r *analysis.Result, limit int) []*Assignment {
	base := AssignFromAnalysis(r)
	if base.Class != Class3 {
		return nil
	}
	if limit <= 0 {
		limit = 32
	}
	if len(base.ConflictPairs) == 0 {
		return []*Assignment{base}
	}

	// Rebuild the conflict graph from the recorded pairs.
	conflict := relation.NewOver(r.Names)
	for _, pr := range base.ConflictPairs {
		conflict.Add(pr[0], pr[1])
		conflict.Add(pr[1], pr[0])
	}
	var nodes []int
	colors := make([]int, r.Names.Len())
	for i := range colors {
		colors[i] = -1
		if !conflict.Row(i).Empty() {
			nodes = append(nodes, i)
		}
	}
	k := base.NumVNs

	// Enumerate proper k-colorings with canonical color order (the
	// first node gets color 0, each new color must be the smallest
	// unused — eliminating permutations).
	var out []*Assignment
	seen := map[string]bool{}

	var rec func(i, used int)
	rec = func(i, used int) {
		if len(out) >= limit {
			return
		}
		if i == len(nodes) {
			vn := completeAssignment(r, colors, k)
			key := assignmentKey(r, vn)
			if seen[key] {
				return
			}
			seen[key] = true
			if ok, _ := analysis.DeadlockFree(r, vn); !ok {
				return
			}
			out = append(out, &Assignment{
				Protocol:      r.Protocol,
				Analysis:      r,
				Class:         Class3,
				NumVNs:        k,
				VN:            vn,
				ConflictPairs: base.ConflictPairs,
				Exact:         base.Exact,
			})
			return
		}
		n := nodes[i]
		for c := 0; c < min(used+1, k); c++ {
			ok := true
			around := conflict.Row(n)
			for nb := around.Next(-1); nb >= 0 && ok; nb = around.Next(nb) {
				ok = colors[nb] != c
			}
			if !ok {
				continue
			}
			colors[n] = c
			nextUsed := used
			if c == used {
				nextUsed++
			}
			rec(i+1, nextUsed)
			colors[n] = -1
			if len(out) >= limit {
				return
			}
		}
	}
	rec(0, 0)
	return out
}

// assignmentKey canonicalizes an assignment as a partition signature
// so color-permuted duplicates collapse.
func assignmentKey(r *analysis.Result, vn map[string]int) string {
	names := r.Protocol.MessageNames()
	relabel := map[int]int{}
	next := 0
	var b []byte
	for _, m := range names {
		c := vn[m]
		if _, ok := relabel[c]; !ok {
			relabel[c] = next
			next++
		}
		b = append(b, byte('0'+relabel[c]))
	}
	return string(b)
}

// GroupsString renders an assignment's VN groups compactly, for the
// enumeration output.
func GroupsString(a *Assignment) string {
	var parts []string
	for i, g := range a.VNGroups() {
		parts = append(parts, "VN"+strconv.Itoa(i)+"={"+strings.Join(g, ",")+"}")
	}
	return strings.Join(parts, " ")
}

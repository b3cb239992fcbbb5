package graph

import (
	"math/rand"
	"testing"
)

// Ablation: exact DP vs Eades–Lin–Smyth heuristic for the minimum
// feedback arc set (DESIGN.md §5.1), at the paper's instance scale
// (~10¹ nodes) and beyond.

func benchGraph(n, edges int, seed int64) *Digraph {
	r := rand.New(rand.NewSource(seed))
	g := NewDigraph()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
		g.AddNode(names[i])
	}
	for i := 0; i < edges; i++ {
		a, b := names[r.Intn(n)], names[r.Intn(n)]
		if a != b {
			g.AddEdge(a, b, int64(1+r.Intn(9)))
		}
	}
	return g
}

func BenchmarkFASExact(b *testing.B) {
	for _, size := range []struct{ n, e int }{{8, 24}, {12, 48}, {16, 80}} {
		g := benchGraph(size.n, size.e, 11)
		b.Run(benchName(size.n, size.e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MinFeedbackArcSet(g)
			}
		})
	}
}

func BenchmarkFASHeuristic(b *testing.B) {
	for _, size := range []struct{ n, e int }{{8, 24}, {12, 48}, {16, 80}, {40, 300}} {
		g := benchGraph(size.n, size.e, 11)
		b.Run(benchName(size.n, size.e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				HeuristicFeedbackArcSet(g)
			}
		})
	}
}

// BenchmarkFASQualityGap reports how much weight the heuristic leaves
// on the table relative to the exact optimum.
func BenchmarkFASQualityGap(b *testing.B) {
	var exactW, heurW int64
	for seed := int64(0); seed < 30; seed++ {
		g := benchGraph(10, 40, seed)
		exactW += MinFeedbackArcSet(g).TotalWeight
		heurW += HeuristicFeedbackArcSet(g).TotalWeight
	}
	b.ReportMetric(float64(exactW), "exact-weight")
	b.ReportMetric(float64(heurW), "heuristic-weight")
	for i := 0; i < b.N; i++ {
		// The metric above is the payload; keep the loop trivial.
	}
}

func BenchmarkColoringExact(b *testing.B) {
	g := benchUndirected(14, 40, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ColorMinimal(g)
	}
}

func BenchmarkColoringDSATUR(b *testing.B) {
	g := benchUndirected(14, 40, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colorDSATUR(g, g.nodes())
	}
}

func benchUndirected(n, edges int, seed int64) *Undirected {
	r := rand.New(rand.NewSource(seed))
	g := NewUndirected()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
		g.AddNode(names[i])
	}
	for i := 0; i < edges; i++ {
		a, b := names[r.Intn(n)], names[r.Intn(n)]
		if a != b {
			g.AddEdge(a, b)
		}
	}
	return g
}

func benchName(n, e int) string {
	return "n" + itoa(n) + "_e" + itoa(e)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

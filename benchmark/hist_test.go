package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantilesWithinOnePercent checks every reported quantile
// against the exact nearest-rank value of the sorted samples.
func TestHistQuantilesWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	draws := map[string]func() int64{
		"uniform-us":  func() int64 { return 1000 + r.Int63n(100_000) },
		"lognormal":   func() int64 { return int64(math.Exp(r.NormFloat64()*1.5 + 10)) },
		"exponential": func() int64 { return int64(r.ExpFloat64() * 40_000) },
		"small":       func() int64 { return r.Int63n(300) },
	}
	for name, draw := range draws {
		var h hist
		v := make([]int64, 100_000)
		for i := range v {
			v[i] = draw()
			h.record(v[i])
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			exact := float64(v[int(math.Ceil(q*float64(len(v))))-1])
			got := h.quantile(q)
			if math.Abs(got-exact) > 0.01*exact {
				t.Errorf("%s: q%.3f = %.1f, exact %.1f (off by %.2f%%)", name, q, got, exact, 100*math.Abs(got-exact)/exact)
			}
		}
	}
}

func TestHistMergeAndEmpty(t *testing.T) {
	var a, b hist
	if a.quantile(0.5) != 0 || a.mean() != 0 {
		t.Fatal("empty hist quantile or mean != 0")
	}
	for i := int64(1); i <= 100; i++ {
		a.record(i)
		b.record(i + 100)
	}
	a.merge(&b)
	if a.n != 200 || a.quantile(0.5) != 100 || a.quantile(1) != 200 || a.mean() != 100.5 {
		t.Fatalf("merged: n=%d p50=%v max=%v mean=%v", a.n, a.quantile(0.5), a.quantile(1), a.mean())
	}
}

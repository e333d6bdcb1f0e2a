package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Comparator for paired runs of two commits. Each input file holds the
// record lines of any number of untraced runs (the lines every run prints
// before its summary; other lines are skipped). For every workload and
// end-to-end metric it compares the medians under the metric's bound:
//
//	ok         the new median is no worse than the base by more than the bound
//	regressed  it is worse by more than the bound
//	unresolved the base runs' own spread (Q3 - Q1) is wider than the bound,
//	           so a change within it cannot be told from noise, unless every
//	           new run reads better than every base run
//
// More failed requests in the new runs than in the base is a regression
// of its own. The exit code is 1 when any row regressed.

// quartiles returns Q1, Q2 and Q3 of v by the "exclusive" method of
// Python's statistics.quantiles(v, n=4), so spreads match that tool.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// verdict is one workload × metric row.
type verdict struct {
	Workload, Metric string
	Base, New        float64 // medians
	Spread           float64 // base Q3 - Q1
	Bound            float64
	Status           string
}

// judge compares the base and new runs of one metric.
func judge(d metricDef, base, cur []float64) verdict {
	q1, bm, q3 := quartiles(base)
	_, nm, _ := quartiles(cur)
	v := verdict{Metric: d.name, Base: bm, New: nm, Spread: q3 - q1,
		Bound: math.Max(d.rel*math.Abs(bm), d.abs)}
	worse := nm - bm
	allBetter := maxOf(cur) < minOf(base)
	if d.higher {
		worse = bm - nm
		allBetter = minOf(cur) > maxOf(base)
	}
	switch {
	case v.Spread > v.Bound && !allBetter:
		v.Status = "unresolved"
	case worse > v.Bound && !allBetter:
		v.Status = "regressed"
	default:
		v.Status = "ok"
	}
	return v
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// runs is one file's untraced results grouped by workload, in first-seen
// order.
type runs struct {
	order  []string
	values map[string]map[string][]float64 // workload → metric → per-run values
	failed map[string]int64
}

func readRuns(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runs{values: make(map[string]map[string][]float64), failed: make(map[string]int64)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Traced {
			continue
		}
		m, ok := rs.values[r.Workload]
		if !ok {
			m = make(map[string][]float64)
			rs.values[r.Workload] = m
			rs.order = append(rs.order, r.Workload)
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
		rs.failed[r.Workload] += r.Failed
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(rs.order) == 0 {
		return nil, fmt.Errorf("%s: no untraced result records", path)
	}
	return rs, nil
}

// compareRuns judges every workload × end-to-end metric present in both.
func compareRuns(base, cur *runs) []verdict {
	var out []verdict
	for _, w := range base.order {
		nm, ok := cur.values[w]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			b, n := base.values[w][d.name], nm[d.name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v := judge(d, b, n)
			v.Workload = w
			out = append(out, v)
		}
		v := verdict{Workload: w, Metric: "failed", Base: float64(base.failed[w]), New: float64(cur.failed[w]), Status: "ok"}
		if cur.failed[w] > base.failed[w] {
			v.Status = "regressed"
		}
		out = append(out, v)
	}
	return out
}

func runCompare(basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := readRuns(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	cur, err := readRuns(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-20s %-14s %14s %14s %12s %12s  %s\n", "workload", "metric", "base median", "new median", "base IQR", "bound", "status")
	for _, v := range compareRuns(base, cur) {
		fmt.Fprintf(stdout, "%-20s %-14s %14.4g %14.4g %12.4g %12.4g  %s\n", v.Workload, v.Metric, v.Base, v.New, v.Spread, v.Bound, v.Status)
		if v.Status == "regressed" {
			code = 1
		}
	}
	return code
}

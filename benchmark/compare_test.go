package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJudgeBounds(t *testing.T) {
	lower := metricDef{name: "lat", rel: 0.10}
	higher := metricDef{name: "ops", higher: true, rel: 0.10}
	floored := metricDef{name: "setup", rel: 0.25, abs: 0.05}
	steady := []float64{100, 100, 100, 100, 100}
	cases := []struct {
		name   string
		d      metricDef
		base   []float64
		cur    []float64
		status string
		bound  float64
	}{
		{"within bound", lower, steady, []float64{109, 109, 109}, "ok", 10},
		{"just past bound", lower, steady, []float64{111, 111, 111}, "regressed", 10},
		{"improved", lower, steady, []float64{50, 50, 50}, "ok", 10},
		{"higher is better", higher, steady, []float64{89, 89, 89}, "regressed", 10},
		{"higher improved", higher, steady, []float64{150, 150, 150}, "ok", 10},
		{"abs floor", floored, []float64{0.02, 0.02, 0.02}, []float64{0.06, 0.06, 0.06}, "ok", 0.05},
		{"past abs floor", floored, []float64{0.02, 0.02, 0.02}, []float64{0.08, 0.08, 0.08}, "regressed", 0.05},
		{"rel above floor", floored, []float64{1, 1, 1}, []float64{1.2, 1.2, 1.2}, "ok", 0.25},
		{"noisy base", lower, []float64{80, 90, 100, 110, 120}, []float64{130, 130, 130}, "unresolved", 10},
		{"noisy base, every run better", lower, []float64{80, 90, 100, 110, 120}, []float64{70, 75}, "ok", 10},
	}
	for _, c := range cases {
		v := judge(c.d, c.base, c.cur)
		if v.Status != c.status || v.Bound != c.bound {
			t.Errorf("%s: status %s bound %v, want %s %v", c.name, v.Status, v.Bound, c.status, c.bound)
		}
	}
}

func TestCompareFlagsMoreFailures(t *testing.T) {
	dir := t.TempDir()
	line := func(failed string) string {
		return `{"workload":"w","traced":false,"failed":` + failed +
			`,"metrics":{"ops_per_s":{"value":100,"unit":"ops/s"}}}` + "\n"
	}
	base, cur := filepath.Join(dir, "base"), filepath.Join(dir, "new")
	if err := os.WriteFile(base, []byte(line("0")+line("0")+"not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, []byte(line("0")+line("3")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errs strings.Builder
	if code := runCompare(base, cur, &out, &errs); code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "failed") || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("no failed regression row:\n%s", out.String())
	}
}

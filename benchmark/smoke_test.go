package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json this package is run under.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables the
// program reports and compares by in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, code %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || m.Bound != d.rel {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// TestSmokeAllWorkloads runs every workload for 200 ms untraced and
// traced: each must pass its correctness gates and print every metric of
// its kind, and the last line must be the summary object.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layer []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, m.Name)
	}
	spans := t.TempDir()
	for _, mode := range []struct {
		trace string
		names []string
	}{{"0", e2e}, {spans, layer}} {
		var out, errs bytes.Buffer
		if code := run([]string{"--seconds", "0.2", "--trace", mode.trace}, &out, &errs); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", mode.trace, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != len(workloads)+1 {
			t.Fatalf("trace %s: %d output lines, want %d", mode.trace, len(lines), len(workloads)+1)
		}
		var seen []string
		for _, l := range lines[:len(workloads)] {
			var r record
			if err := json.Unmarshal([]byte(l), &r); err != nil {
				t.Fatal(err)
			}
			seen = append(seen, r.Workload)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 || len(r.Gates) != 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d gates=%v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Gates)
			}
			for _, name := range mode.names {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("%s: metric %s missing", r.Workload, name)
				}
			}
			if len(r.Metrics) != len(mode.names) {
				t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(mode.names))
			}
			if mode.trace != "0" && r.SpanFile == "" {
				t.Errorf("%s: no span file", r.Workload)
			}
		}
		for _, w := range bj.Workloads {
			if !slices.Contains(seen, w.Name) {
				t.Errorf("trace %s: workload %s did not run", mode.trace, w.Name)
			}
		}
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range last {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("summary keys %v", keys)
		}
	}
}

package main

import (
	"math"
	"slices"
	"testing"
)

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := genStream(w, 42, 0), genStream(w, 42, 0)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 42 gave two different streams", w.name)
		}
		if !slices.Equal(preloadSizes(w, 42), preloadSizes(w, 42)) {
			t.Errorf("%s: seed 42 gave two different preloads", w.name)
		}
		if slices.Equal(a, genStream(w, 43, 0)) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
		if slices.Equal(a, genStream(w, 42, 1)) {
			t.Errorf("%s: clients 0 and 1 got the same stream", w.name)
		}
		if !slices.Equal(a[:windowOps], a[streamLen:]) {
			t.Errorf("%s: stream tail does not repeat its first window", w.name)
		}
	}
}

func TestStreamsMatchWorkloadShape(t *testing.T) {
	for _, w := range workloads {
		s := genStream(w, 1, 0)
		get, put, del := mix(s)
		if math.Abs(get-w.getFrac) > 0.01 || math.Abs(put-w.putFrac) > 0.01 || math.Abs(del-(1-w.getFrac-w.putFrac)) > 0.01 {
			t.Errorf("%s: mix %.3f/%.3f/%.3f", w.name, get, put, del)
		}
		for _, o := range s {
			if int(o.key) >= w.keys || o.kind == opPut && (int(o.size) < w.minVal || int(o.size) > w.maxVal) {
				t.Fatalf("%s: op %+v outside the workload's keys or sizes", w.name, o)
			}
		}
	}
}

func TestValuesCarryTheirKey(t *testing.T) {
	w := workloads[2]
	v := fillVal(nil, 7, 3, 5000)
	if !w.valOK(v, 7) {
		t.Fatal("fresh value rejected")
	}
	if w.valOK(v, 8) {
		t.Fatal("value accepted for another key")
	}
	v[4000] ^= 1
	if w.valOK(v, 7) {
		t.Fatal("corrupt body accepted")
	}
}

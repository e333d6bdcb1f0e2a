package arena

import (
	"strings"
	"testing"

	"cdrc/internal/chaos"
	"cdrc/internal/obs"
)

// verdictSequence drives n hits of the "arena.alloc" point through alloc
// and records, per hit, whether the fault fired. useAlloc selects the
// entry point for each hit index; Alloc's panic is the fired verdict.
func verdictSequence(p *Pool[payload], n int, useAlloc func(hit int) bool) []bool {
	out := make([]bool, 0, n)
	var handles []Handle
	for i := 0; i < n; i++ {
		if useAlloc(i) {
			fired := func() (fired bool) {
				defer func() {
					if r := recover(); r != nil {
						msg, ok := r.(string)
						if !ok || !strings.Contains(msg, "injected fault") {
							panic(r)
						}
						fired = true
					}
				}()
				handles = append(handles, p.Alloc(0))
				return false
			}()
			out = append(out, fired)
		} else {
			h, err := p.TryAlloc(0)
			if err == nil {
				handles = append(handles, h)
			}
			out = append(out, err != nil)
		}
	}
	for _, h := range handles {
		p.Free(0, h)
	}
	return out
}

// TestAllocFaultScheduleDeterministic is the regression test for the bug
// where Alloc called chaosAlloc.Fire() and discarded the verdict: a
// forced failure scheduled at "arena.alloc" was silently consumed, so the
// deterministic (seed, point, hit) schedule desynchronized between Alloc
// and TryAlloc callers. One seed must now produce the same per-hit
// verdicts regardless of which entry point consumes each hit.
func TestAllocFaultScheduleDeterministic(t *testing.T) {
	const seed, hits = 42, 400
	run := func(useAlloc func(int) bool) []bool {
		chaos.Enable(chaos.Config{Seed: seed, Faults: map[string]chaos.Fault{
			"arena.alloc": {Prob: 0.5, Fail: true},
		}})
		defer chaos.Disable()
		return verdictSequence(NewPool[payload](4), hits, useAlloc)
	}

	tryOnly := run(func(int) bool { return false })
	allocOnly := run(func(int) bool { return true })
	mixed := run(func(hit int) bool { return hit%3 == 0 })

	fired := 0
	for _, v := range tryOnly {
		if v {
			fired++
		}
	}
	if fired == 0 || fired == hits {
		t.Fatalf("degenerate schedule: %d/%d hits fired", fired, hits)
	}
	for i := range tryOnly {
		if allocOnly[i] != tryOnly[i] {
			t.Fatalf("hit %d: Alloc verdict %v != TryAlloc verdict %v", i, allocOnly[i], tryOnly[i])
		}
		if mixed[i] != tryOnly[i] {
			t.Fatalf("hit %d: mixed-entry verdict %v != TryAlloc verdict %v", i, mixed[i], tryOnly[i])
		}
	}
}

// TestAllocPanicsOnInjectedFault pins the panic contract: a fired fault
// must not be silently consumed by the infallible entry point.
func TestAllocPanicsOnInjectedFault(t *testing.T) {
	chaos.Enable(chaos.Config{Seed: 1, Faults: map[string]chaos.Fault{
		"arena.alloc": {Every: 1, Fail: true},
	}})
	defer chaos.Disable()
	p := NewPool[payload](4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Alloc consumed a fired fault without effect")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "injected fault") {
			t.Fatalf("panic %v does not mirror TryAlloc's injected-fault error", r)
		}
	}()
	p.Alloc(0)
}

// TestStatsSlotsUnderflowGuard covers Stats on pools that never carved a
// slot: a fresh pool reports 0, and a zero-value Pool (carved == 0,
// not usable but observable) must not wrap Slots around to 2^64-1.
func TestStatsSlotsUnderflowGuard(t *testing.T) {
	fresh := NewPool[payload](2)
	if st := fresh.Stats(); st.Slots != 0 {
		t.Fatalf("fresh pool Slots = %d, want 0", st.Slots)
	}
	var zero Pool[payload]
	if st := zero.Stats(); st.Slots != 0 {
		t.Fatalf("zero-value pool Slots = %d, want 0", st.Slots)
	}
}

// TestObsCountersTrackAllocFree checks the arena's counter pair and its
// weak-registered occupancy gauges through one alloc/free cycle.
func TestObsCountersTrackAllocFree(t *testing.T) {
	if !obs.BuildEnabled {
		t.Skip("obs compiled out")
	}
	obs.Enable()
	defer obs.Disable()
	p := NewPool[payload](2)
	var hs []Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, p.Alloc(0))
	}
	h, err := p.TryAlloc(1)
	if err != nil {
		t.Fatal(err)
	}
	hs = append(hs, h)
	r := obs.Snapshot()
	if got := r.Counter("arena.alloc"); got != 11 {
		t.Fatalf("arena.alloc = %d, want 11", got)
	}
	for _, h := range hs {
		p.Free(0, h)
	}
	r = obs.Snapshot()
	if a, f := r.Counter("arena.alloc"), r.Counter("arena.free"); a != f {
		t.Fatalf("at quiescence arena.alloc (%d) != arena.free (%d)", a, f)
	}
	// The pool registered occupancy gauges at creation; one of the rows
	// must reconcile with this pool's stats.
	found := false
	for _, row := range r.Pools {
		if row.Allocs == 11 && row.Frees == 11 && row.Live == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no gauge row reconciles with the pool: %+v", r.Pools)
	}
}

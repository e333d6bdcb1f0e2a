//go:build !obsoff

package rcscheme_test

import (
	"sync"
	"testing"

	"cdrc/internal/obs"
	"cdrc/internal/rcscheme"
)

// TestObsQuiescenceReconciliation turns the leak invariant into a
// counter identity: after a concurrent mixed workload, at quiescence the
// obs counters must satisfy allocs − frees == Live, and after teardown
// every deferred decrement must have been ejected and applied
// (retires == reclaims). Runs across all five scheme families via the
// conformance harness.
func TestObsQuiescenceReconciliation(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	forEachScheme(t, 8, func(t *testing.T, s rcscheme.StackScheme) {
		obs.Reset() // per-scheme metric window
		const workers = 4
		const iters = 3000
		s.Setup(4)
		s.SetupStacks(2, [][]uint64{{1, 2, 3}, nil})

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				lt := s.Attach()
				st := s.AttachStack()
				defer lt.Detach()
				defer st.Detach()
				rng := seed
				for i := 0; i < iters; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					switch rng >> 61 {
					case 0, 1:
						lt.Store(int(rng>>33%4), rng|1)
					case 2:
						lt.Load(int(rng >> 33 % 4))
					case 3, 4:
						st.Push(int(rng>>33%2), rng%100+1)
					case 5:
						st.Pop(int(rng >> 33 % 2))
					default:
						st.Find(int(rng>>33%2), rng%100+1)
					}
				}
			}(uint64(w + 1))
		}
		wg.Wait()

		// Quiescent, pre-teardown: the counter difference must equal the
		// pools' live count exactly (deferred garbage is allocated and
		// unfreed on both sides of the identity).
		r := obs.Snapshot()
		if d, live := r.Counter("arena.alloc")-r.Counter("arena.free"), s.Live(); d != live {
			t.Fatalf("at quiescence: arena.alloc-arena.free = %d, Live() = %d", d, live)
		}

		s.Teardown()
		if live := s.Live(); live != 0 {
			t.Fatalf("Live = %d after Teardown", live)
		}
		r = obs.Snapshot()
		if a, f := r.Counter("arena.alloc"), r.Counter("arena.free"); a != f {
			t.Fatalf("after teardown: arena.alloc = %d, arena.free = %d", a, f)
		}
		// Deferred-RC identities (trivially 0 == 0 for the eager schemes).
		if re, ej := r.Counter("acqret.retire"), r.Counter("acqret.eject"); re != ej {
			t.Fatalf("after teardown: acqret.retire = %d, acqret.eject = %d", re, ej)
		}
		if d, ap := r.Counter("core.decr.deferred"), r.Counter("core.decr.applied"); d != ap {
			t.Fatalf("after teardown: core.decr.deferred = %d, core.decr.applied = %d", d, ap)
		}
	})
}

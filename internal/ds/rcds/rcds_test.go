package rcds

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cdrc/internal/ds"
)

type factory struct {
	name string
	make func(snapshots bool) ds.Set
}

func factories() []factory {
	return []factory{
		{"list", func(s bool) ds.Set { return NewList(16, s) }},
		{"hash", func(s bool) ds.Set { return NewHashTable(64, 16, s) }},
		{"bst", func(s bool) ds.Set { return NewBST(16, s) }},
	}
}

func modes(t *testing.T, f func(t *testing.T, snapshots bool)) {
	t.Run("snapshots", func(t *testing.T) { f(t, true) })
	t.Run("eager", func(t *testing.T) { f(t, false) })
}

func testSequential(t *testing.T, s ds.Set) {
	th := s.Attach()
	defer th.Detach()
	if th.Contains(5) || th.Delete(5) {
		t.Fatal("empty set misbehaves")
	}
	for i := uint64(0); i < 200; i += 2 {
		if !th.Insert(i) {
			t.Fatalf("Insert(%d) = false", i)
		}
		if th.Insert(i) {
			t.Fatalf("duplicate Insert(%d) = true", i)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if got, want := th.Contains(i), i%2 == 0; got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
	for i := uint64(0); i < 200; i += 4 {
		if !th.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
		if th.Delete(i) {
			t.Fatalf("double Delete(%d) = true", i)
		}
	}
	for i := uint64(0); i < 200; i++ {
		want := i%2 == 0 && i%4 != 0
		if got := th.Contains(i); got != want {
			t.Fatalf("after deletes, Contains(%d) = %v, want %v", i, got, want)
		}
	}
	for i := uint64(0); i < 200; i += 2 {
		if i%4 == 0 {
			if !th.Insert(i) {
				t.Fatalf("reinsert(%d) failed", i)
			}
		}
		if !th.Delete(i) {
			t.Fatalf("final Delete(%d) failed", i)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if th.Contains(i) {
			t.Fatalf("emptied set contains %d", i)
		}
	}
}

func TestSequentialAllStructures(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			modes(t, func(t *testing.T, snapshots bool) {
				testSequential(t, f.make(snapshots))
			})
		})
	}
}

func testConcurrent(t *testing.T, s ds.Set, workers, iters int, keyRange uint64) {
	insOK := make([]atomic.Int64, keyRange)
	delOK := make([]atomic.Int64, keyRange)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := s.Attach()
			defer th.Detach()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Int63n(int64(keyRange)))
				switch rng.Intn(10) {
				case 0, 1, 2:
					if th.Insert(k) {
						insOK[k].Add(1)
					}
				case 3, 4, 5:
					if th.Delete(k) {
						delOK[k].Add(1)
					}
				default:
					th.Contains(k)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	th := s.Attach()
	defer th.Detach()
	for k := uint64(0); k < keyRange; k++ {
		net := insOK[k].Load() - delOK[k].Load()
		if net != 0 && net != 1 {
			t.Fatalf("key %d: net successful inserts = %d", k, net)
		}
		if got, want := th.Contains(k), net == 1; got != want {
			t.Fatalf("key %d: Contains = %v, want %v", k, got, want)
		}
	}
}

func TestConcurrentAllStructures(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			modes(t, func(t *testing.T, snapshots bool) {
				testConcurrent(t, f.make(snapshots), 8, 3000, 128)
			})
		})
	}
}

// Automatic chain reclamation: the BST must not leak removed chains even
// under concurrent deletes (the §8 bug class), with zero manual retires.
func TestBSTNoLeakUnderChurn(t *testing.T) {
	modes(t, func(t *testing.T, snapshots bool) {
		s := NewBST(8, snapshots)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				th := s.Attach()
				defer th.Detach()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 4000; i++ {
					k := uint64(rng.Int63n(64))
					if rng.Intn(2) == 0 {
						th.Insert(k)
					} else {
						th.Delete(k)
					}
				}
			}(int64(w + 1))
		}
		wg.Wait()
		// Drain deferred decrements.
		th := s.Attach()
		th.Detach()
		th = s.Attach()
		th.Detach()
		if un := s.Unreclaimed(); un != 0 {
			t.Fatalf("Unreclaimed = %d after quiescence", un)
		}
		// <= 64 keys: <= 64+1 leaves per key-side + internals + sentinels.
		if live := s.LiveNodes(); live > 2*64+8 {
			t.Fatalf("LiveNodes = %d: chain leak", live)
		}
	})
}

// List memory: churn must not grow live nodes beyond the deferral bound.
func TestListMemoryBounded(t *testing.T) {
	modes(t, func(t *testing.T, snapshots bool) {
		s := NewList(4, snapshots)
		th := s.Attach()
		for i := 0; i < 20000; i++ {
			th.Insert(uint64(i % 8))
			th.Delete(uint64(i % 8))
		}
		th.Detach()
		th = s.Attach()
		th.Detach()
		if un := s.Unreclaimed(); un != 0 {
			t.Fatalf("Unreclaimed = %d at quiescence", un)
		}
		if live := s.LiveNodes(); live > 8 {
			t.Fatalf("LiveNodes = %d, want <= 8", live)
		}
	})
}

// TestEagerListKeepsKeys pins the search's restart on a marked nil. In
// eager mode (counted references, no snapshots) the position keeps the
// marks of the word it read, so a search that stopped at a deleted last
// node's marked-nil successor handed insert a CAS that expected exactly
// that marked word: the new node was linked past a deleted node (and
// the deletion mark cleared), losing or resurrecting keys. Few keys and
// many short rounds make the window common.
func TestEagerListKeepsKeys(t *testing.T) {
	const keyRange = 8
	for round := 0; round < 400; round++ {
		s := NewList(5, false)
		s.base.dom.EnableDebugChecks()
		insOK := make([]atomic.Int64, keyRange)
		delOK := make([]atomic.Int64, keyRange)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				th := s.Attach()
				defer th.Detach()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 300; i++ {
					k := uint64(rng.Int63n(keyRange))
					switch rng.Intn(10) {
					case 0, 1, 2:
						if th.Insert(k) {
							insOK[k].Add(1)
						}
					case 3, 4, 5:
						if th.Delete(k) {
							delOK[k].Add(1)
						}
					default:
						th.Contains(k)
					}
				}
			}(int64(round*10 + w + 1))
		}
		wg.Wait()
		th := s.Attach()
		for k := uint64(0); k < keyRange; k++ {
			net := insOK[k].Load() - delOK[k].Load()
			if got := th.Contains(k); (net != 0 && net != 1) || got != (net == 1) {
				t.Fatalf("round %d key %d: Contains = %v after %d successful inserts and %d deletes",
					round, k, got, insOK[k].Load(), delOK[k].Load())
			}
		}
		th.Detach()
	}
}

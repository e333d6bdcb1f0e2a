package rcds

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cdrc/internal/lincheck"
)

// Record real concurrent histories from the cdrc-backed structures and
// verify them against sequential specifications - linearizability on
// actual interleavings, not just conservation at quiescence.

func TestQueueLinearizable(t *testing.T) {
	const rounds = 300
	const workers = 3
	const opsPerWorker = 5

	for r := 0; r < rounds; r++ {
		q := NewQueue(workers + 1)
		var clock atomic.Int64
		hist := make([][]lincheck.Op, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int, seed int64) {
				defer wg.Done()
				th := q.Attach()
				defer th.Detach()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerWorker; i++ {
					op := lincheck.Op{Start: clock.Add(1)}
					if rng.Intn(2) == 0 {
						op.Kind = lincheck.OpPush
						op.Arg = uint64(rng.Intn(100) + 1)
						th.Enqueue(op.Arg)
					} else {
						op.Kind = lincheck.OpPop
						op.Ret, op.RetOK = th.Dequeue()
					}
					op.End = clock.Add(1)
					hist[id] = append(hist[id], op)
				}
			}(w, int64(r*workers+w+1))
		}
		wg.Wait()
		var all []lincheck.Op
		for _, h := range hist {
			all = append(all, h...)
		}
		if !lincheck.Check[string](lincheck.QueueModel{}, all) {
			t.Fatalf("round %d: queue history not linearizable: %+v", r, all)
		}
	}
}

func TestListSetLinearizable(t *testing.T) {
	const rounds = 200
	const workers = 3
	const opsPerWorker = 5

	for r := 0; r < rounds; r++ {
		for _, snapshots := range []bool{true, false} {
			s := NewList(workers+1, snapshots)
			var clock atomic.Int64
			hist := make([][]lincheck.Op, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int, seed int64) {
					defer wg.Done()
					th := s.Attach()
					defer th.Detach()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < opsPerWorker; i++ {
						k := uint64(rng.Intn(4))
						op := lincheck.Op{Arg: k, Start: clock.Add(1)}
						switch rng.Intn(3) {
						case 0:
							op.Kind = lincheck.OpInsert
							op.RetOK = th.Insert(k)
						case 1:
							op.Kind = lincheck.OpDelete
							op.RetOK = th.Delete(k)
						default:
							op.Kind = lincheck.OpContains
							op.RetOK = th.Contains(k)
						}
						op.End = clock.Add(1)
						hist[id] = append(hist[id], op)
					}
				}(w, int64(r*workers+w+17))
			}
			wg.Wait()
			var all []lincheck.Op
			for _, h := range hist {
				all = append(all, h...)
			}
			if !lincheck.Check[uint64](lincheck.SetModel{}, all) {
				t.Fatalf("round %d (snapshots=%v): list history not linearizable: %+v",
					r, snapshots, all)
			}
		}
	}
}

// TestCacheTTLLinearizable records real concurrent histories of the
// cache ops — SetEx, GetEx-with-touch, Expire — on 8-byte value bodies
// against the TTL-aware sequential model. Time is the history's own
// logical clock: each op passes its invocation timestamp as `now` and
// absolute deadlines drawn a few ticks ahead, so expire-vs-get races
// (one op re-stamping a deadline while another reads or lazily reaps)
// must still admit a legal total order.
func TestCacheTTLLinearizable(t *testing.T) {
	const rounds = 300
	const workers = 3
	const opsPerWorker = 5

	for r := 0; r < rounds; r++ {
		h := NewHashTable(64, workers+1, true)
		h.EnableByteValues(t.Name())
		h.EnableDebugChecks()
		var clock atomic.Int64
		hist := make([][]lincheck.Op, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int, seed int64) {
				defer wg.Done()
				th := h.AttachCache()
				defer th.Detach()
				rng := rand.New(rand.NewSource(seed))
				var dst []byte
				for i := 0; i < opsPerWorker; i++ {
					k := uint64(rng.Intn(lincheck.CacheModelKeys))
					op := lincheck.Op{Start: clock.Add(1)}
					now := uint64(op.Start)
					var exp uint64
					if rng.Intn(2) == 0 {
						exp = now + uint64(rng.Intn(4)+1)
					}
					switch rng.Intn(4) {
					case 0:
						val := uint64(rng.Intn(200) + 1)
						op.Kind = lincheck.OpSetEx
						op.Arg = exp<<16 | k<<8 | val
						old, existed, ref, _, err := th.PutExB(k, u64b(val), exp, now, dst[:0])
						if err != nil {
							t.Error(err)
							return
						}
						dst = old
						op.Ret, op.RetOK = bu64(old), existed
						if ref.Word != 0 {
							th.DropRef(ref)
						}
					case 1:
						if exp == 0 {
							exp = now // immediate: already <= every later now
						}
						op.Kind = lincheck.OpExpire
						op.Arg = exp<<16 | k<<8
						op.RetOK, _ = th.ExpireAt(k, exp, now)
					default:
						op.Kind = lincheck.OpGetEx
						op.Arg = exp<<16 | k<<8
						v, hit, _ := th.GetExB(k, exp, now, dst[:0])
						dst = v
						op.Ret, op.RetOK = bu64(v), hit
					}
					op.End = clock.Add(1)
					hist[id] = append(hist[id], op)
				}
			}(w, int64(r*workers+w+71))
		}
		wg.Wait()
		var all []lincheck.Op
		for _, h := range hist {
			all = append(all, h...)
		}
		if !lincheck.Check[lincheck.CacheState](lincheck.CacheModel{}, all) {
			t.Fatalf("round %d: cache history not linearizable: %+v", r, all)
		}
		th := h.AttachCache()
		quiesce(t, h, th)
	}
}

func TestBSTSetLinearizable(t *testing.T) {
	const rounds = 200
	const workers = 3
	const opsPerWorker = 5

	for r := 0; r < rounds; r++ {
		s := NewBST(workers+1, true)
		var clock atomic.Int64
		hist := make([][]lincheck.Op, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int, seed int64) {
				defer wg.Done()
				th := s.Attach()
				defer th.Detach()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerWorker; i++ {
					k := uint64(rng.Intn(4))
					op := lincheck.Op{Arg: k, Start: clock.Add(1)}
					switch rng.Intn(3) {
					case 0:
						op.Kind = lincheck.OpInsert
						op.RetOK = th.Insert(k)
					case 1:
						op.Kind = lincheck.OpDelete
						op.RetOK = th.Delete(k)
					default:
						op.Kind = lincheck.OpContains
						op.RetOK = th.Contains(k)
					}
					op.End = clock.Add(1)
					hist[id] = append(hist[id], op)
				}
			}(w, int64(r*workers+w+53))
		}
		wg.Wait()
		var all []lincheck.Op
		for _, h := range hist {
			all = append(all, h...)
		}
		if !lincheck.Check[uint64](lincheck.SetModel{}, all) {
			t.Fatalf("round %d: BST history not linearizable: %+v", r, all)
		}
	}
}

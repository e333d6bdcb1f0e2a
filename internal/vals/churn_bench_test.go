package vals

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkValsChurn is the value-slab analogue of the arena allocator's
// BenchmarkArenaChurn (results/BENCH_arena.json): P workers in a ring,
// each writing a batch of values of one size class on its own processor
// id, handing the batch of refs to its neighbour, and freeing the batch
// it receives on its own id. Every slab crosses processors between
// TryPut and Free and the batch exceeds the per-processor magazines, so
// each cycle drives the block-transfer path of that class's arena. The
// size sweep covers a small class, a mid class, the largest inline
// class, and the overflow chain (4 head chunks and a 32 B tail per
// value).
func BenchmarkValsChurn(b *testing.B) {
	for _, size := range []int{16, 256, 4096, 16384} {
		for _, procs := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("size=%d/procs=%d", size, procs), func(b *testing.B) {
				benchValsChurn(b, size, procs)
			})
		}
	}
}

// benchValsChurn reports ns per put+free pair. Ref batches travel the
// ring in pre-allocated buffers so the measured loop performs no Go
// allocation.
func benchValsChurn(b *testing.B, size, procs int) {
	const batch = 256 // four 64-slot blocks per hop
	p := New(Config{MaxProcs: procs})
	val := make([]byte, size)
	for i := range val {
		val[i] = byte(i)
	}
	rings := make([]chan []uint64, procs)
	for i := range rings {
		rings[i] = make(chan []uint64, 2)
	}
	iters := b.N / (procs * batch)
	if iters == 0 {
		iters = 1
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			buf := make([]uint64, batch)
			next := rings[(id+1)%procs]
			for i := 0; i < iters; i++ {
				for j := range buf {
					ref, err := p.TryPut(id, val)
					if err != nil {
						b.Errorf("TryPut: %v", err)
						return
					}
					buf[j] = ref
				}
				next <- buf
				buf = <-rings[id]
				for _, ref := range buf {
					p.Free(id, ref)
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	// One batch per worker is still in flight when its sender exits; drain
	// so the pool quiesces (keeps -benchtime 1x runs leak-free too).
	for i := range rings {
		for {
			select {
			case buf := <-rings[i]:
				for _, ref := range buf {
					p.Free(i, ref)
				}
				continue
			default:
			}
			break
		}
	}
	if got := p.Live(); got != 0 {
		b.Fatalf("Live = %d at quiescence", got)
	}
}

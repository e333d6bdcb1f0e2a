// kvstore: a concurrent key-value store in ~40 lines on collections.Map.
//
// Earlier revisions of this example hand-built a copy-on-write hash table
// directly on the cdrc core API; that machinery now lives in the library
// as collections.Map (internal/ds/rcds - Michael's hash table whose
// writes prepend a version cell to the key's chain), so the example
// shrank to what it should teach: attach a handle per goroutine, use it, close it, and reclamation
// is automatic. For the full service built on the same engine - sharding,
// a TCP wire protocol, a fixed pool of shard handles with crash recovery,
// and -BUSY backpressure - see internal/server and its cmd/cdrc-serve and
// cmd/cdrc-load front ends.
package main

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cdrc/collections"
)

func main() {
	const workers = 4
	const keys = 256
	const opsPerWorker = 20000

	m := collections.NewMap(keys, workers+1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := m.Attach()
			defer h.Close()
			rng := uint64(id + 1)
			var vbuf [8]byte
			var dst []byte
			for i := 0; i < opsPerWorker; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := rng >> 33 % keys
				switch rng >> 62 {
				case 0:
					// Tag values with their key so readers can detect
					// corruption; Put publishes the value in a new version
					// cell and the superseded one is reclaimed once no
					// reader holds it.
					binary.LittleEndian.PutUint64(vbuf[:], k<<32|uint64(i))
					var err error
					if dst, _, err = h.Put(k, vbuf[:], dst[:0]); err != nil {
						panic(err) // only possible with a capped arena
					}
				case 1:
					if _, err := h.Delete(k); err != nil {
						panic(err) // only possible with a capped arena
					}
				default:
					var ok bool
					if dst, ok = h.Get(k, dst[:0]); ok &&
						binary.LittleEndian.Uint64(dst)>>32 != k {
						panic("corrupt value")
					}
				}
			}
		}(w)
	}
	wg.Wait()

	h := m.Attach()
	present := h.Scan(-1, func(k uint64, v []byte) bool { return true })
	h.Clear()
	h.Close()

	fmt.Printf("%d workers x %d ops on %d keys\n", workers, opsPerWorker, keys)
	fmt.Printf("keys present at end: %d\n", present)
	fmt.Printf("live nodes after teardown: %d\n", m.LiveNodes())
	if m.LiveNodes() != 0 {
		panic("leak!")
	}
	fmt.Println("all nodes reclaimed automatically")
}

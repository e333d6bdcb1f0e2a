package smrds

import (
	"fmt"
	"testing"

	"cdrc/internal/arena"
	"cdrc/internal/server"
	"cdrc/internal/smr"
)

// chainLengths returns the number of nodes on each of h's bucket
// chains; the table must be quiescent.
func chainLengths(h *HashTable) []int {
	lens := make([]int, len(h.buckets))
	for i := range h.buckets {
		for nd := arena.Handle(h.buckets[i].Load()).Unmarked(); !nd.IsNil(); {
			lens[i]++
			nd = arena.Handle(h.base.pool.Get(nd).next.Load()).Unmarked()
		}
	}
	return lens
}

// TestHashBucketSpread is the manual-SMR twin of rcds's: the Fig. 7b
// baselines index buckets with the same function as the DRC table, so
// the same dense key ranges must stay at about one node per lookup.
// Indexing by bits 32.. of the product put 2^16 dense keys in 7,599 of
// 2^16 buckets (longest chain 10) and Fig. 7b's 100 K prefill in 8,821
// of 131,072 (longest 15).
func TestHashBucketSpread(t *testing.T) {
	type spreadCase struct {
		name    string
		buckets int
		keys    []uint64
	}
	dense := make([]uint64, 1<<16)
	for i := range dense {
		dense[i] = uint64(i)
	}
	prefill := make([]uint64, 100_000) // cdrc-bench -hash-size at paper scale
	for i := range prefill {
		prefill[i] = uint64(2 * i)
	}
	cases := []spreadCase{{"dense", len(dense), dense}, {"fig7b-prefill", len(prefill), prefill}}
	const shards, perShard = 4, 1 << 14
	byShard := make([][]uint64, shards)
	for k := uint64(0); k < shards*perShard; k++ {
		s := server.KeyShard(k, shards)
		byShard[s] = append(byShard[s], k)
	}
	for s, keys := range byShard {
		cases = append(cases, spreadCase{fmt.Sprintf("shard-%d", s), perShard, keys})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHashTable(smr.KindEBR, tc.buckets, 1)
			th := h.Attach()
			for _, k := range tc.keys {
				if !th.Insert(k) {
					t.Fatalf("Insert(%d) = false", k)
				}
			}
			th.Detach()
			total, used, longest := 0, 0, 0
			for _, n := range chainLengths(h) {
				total += n
				if n > 0 {
					used++
				}
				longest = max(longest, n)
			}
			if total != len(tc.keys) {
				t.Fatalf("chains hold %d nodes, want %d", total, len(tc.keys))
			}
			if longest > 3 || 2*used < len(h.buckets) {
				t.Fatalf("%d keys in %d buckets: %d used, longest chain %d; want ≥ %d used and ≤ 3",
					len(tc.keys), len(h.buckets), used, longest, len(h.buckets)/2)
			}
		})
	}
}

package rcds_test

import (
	"fmt"
	"testing"

	"cdrc/internal/ds/rcds"
	"cdrc/internal/server"
)

// checkSpread fails unless the chains hold keys nodes in all, none
// longer than 3, over at least half the buckets.
func checkSpread(t *testing.T, lens []int, keys int) {
	t.Helper()
	total, used, longest := 0, 0, 0
	for _, n := range lens {
		total += n
		if n > 0 {
			used++
		}
		longest = max(longest, n)
	}
	if total != keys {
		t.Fatalf("chains hold %d nodes, want %d", total, keys)
	}
	if longest > 3 || 2*used < len(lens) {
		t.Fatalf("%d keys in %d buckets: %d used, longest chain %d; want ≥ %d used and ≤ 3",
			keys, len(lens), used, longest, len(lens)/2)
	}
}

func spreadOf(t *testing.T, buckets int, keys []uint64) []int {
	h := rcds.NewHashTable(buckets, 1, true)
	th := h.Attach()
	for _, k := range keys {
		if !th.Insert(k) {
			t.Fatalf("Insert(%d) = false", k)
		}
	}
	th.Detach()
	return rcds.ChainLengths(h)
}

// TestHashBucketSpread is the regression test for the bucket index: a
// table at load factor 1 must keep a lookup at about one node, as the
// paper's Fig. 7b assumes, for the dense key ranges the benchmarks use.
// Indexing by bits 32.. of the product put 2^16 dense keys in 7,599 of
// 2^16 buckets (longest chain 10), Fig. 7b's 100 K prefill in 8,821 of
// 131,072 (longest 15), and each of 4 server shards' 2^16/4 keys in
// about 7,300 of 16,384 (longest 4).
func TestHashBucketSpread(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		const n = 1 << 16
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		checkSpread(t, spreadOf(t, n, keys), n)
	})
	t.Run("fig7b-prefill", func(t *testing.T) {
		const size = 100_000 // cdrc-bench -hash-size at paper scale
		keys := make([]uint64, size)
		for i := range keys {
			keys[i] = uint64(2 * i)
		}
		checkSpread(t, spreadOf(t, size, keys), size)
	})
	// The shard and the bucket must come from independent bits, or the
	// keys of one shard crowd into a fraction of its buckets.
	const shards, perShard = 4, 1 << 14
	byShard := make([][]uint64, shards)
	for k := uint64(0); k < shards*perShard; k++ {
		s := server.KeyShard(k, shards)
		byShard[s] = append(byShard[s], k)
	}
	for s, keys := range byShard {
		t.Run(fmt.Sprintf("shard-%d", s), func(t *testing.T) {
			checkSpread(t, spreadOf(t, perShard, keys), len(keys))
		})
	}
}

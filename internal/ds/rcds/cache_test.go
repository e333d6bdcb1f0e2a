package rcds

import (
	"encoding/binary"
	"sync"
	"testing"
)

// u64b encodes a uint64 as an 8-byte little-endian value body, so the
// cache tests and the lincheck TTL model can reason about integer values.
func u64b(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// bu64 decodes the first 8 bytes (0 for shorter slices, so an absent
// value maps to the model's zero).
func bu64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// now values for the tests: deadlines are plain numbers on a logical
// clock, nothing here sleeps.
const (
	t0 = uint64(100)
	t1 = uint64(200)
)

func newCacheTable(t *testing.T) (*HashTable, *CacheThread) {
	t.Helper()
	h := NewHashTable(64, 8, true)
	h.EnableByteValues(t.Name())
	h.EnableDebugChecks()
	return h, h.AttachCache()
}

func quiesce(t *testing.T, h *HashTable, th *CacheThread) {
	t.Helper()
	th.Clear()
	th.Drain()
	th.Detach()
	for i := 0; i < 4 && (h.LiveNodes() != 0 || h.ByteValues().Live() != 0); i++ {
		x := h.AttachCache()
		x.Clear()
		x.Drain()
		x.Detach()
	}
	if n := h.LiveNodes(); n != 0 {
		t.Fatalf("%d nodes leaked", n)
	}
	if n := h.ByteValues().Live(); n != 0 {
		t.Fatalf("%d value slabs leaked", n)
	}
}

func TestCachePutExFreshLinkYieldsRef(t *testing.T) {
	h, th := newCacheTable(t)
	old, existed, ref, reaped, err := th.PutExB(1, u64b(10), 0, t0, nil)
	if err != nil || existed || len(old) != 0 || reaped != 0 {
		t.Fatalf("fresh PutExB: %d %v %d %v", bu64(old), existed, reaped, err)
	}
	if ref.Word == 0 || ref.Key != 1 {
		t.Fatalf("fresh PutExB ref = %+v, want weak ref for key 1", ref)
	}
	// Replace in place: no new ref.
	old, existed, ref2, _, _ := th.PutExB(1, u64b(20), 0, t0, nil)
	if !existed || bu64(old) != 10 || ref2.Word != 0 {
		t.Fatalf("replace PutExB: %d %v %+v", bu64(old), existed, ref2)
	}
	th.DropRef(ref)
	quiesce(t, h, th)
}

func TestCacheExpiredReadReaps(t *testing.T) {
	h, th := newCacheTable(t)
	_, _, ref, _, _ := th.PutExB(1, u64b(10), t0+50, t0, nil)
	if v, hit, _ := th.GetExB(1, 0, t0, nil); !hit || bu64(v) != 10 {
		t.Fatalf("live GetExB: %d %v", bu64(v), hit)
	}
	// Past the deadline the read must miss AND unlink (count one expiry).
	if _, hit, reaped := th.GetExB(1, 0, t1, nil); hit || reaped != 1 {
		t.Fatalf("expired GetExB: hit=%v reaped=%d", hit, reaped)
	}
	// The index record now resolves to a dead entry.
	if out := th.EvictStep(ref, t1); out != EvictGone {
		t.Fatalf("EvictStep after expiry reap = %v, want EvictGone", out)
	}
	quiesce(t, h, th)
}

func TestCacheEvictStepSecondChance(t *testing.T) {
	h, th := newCacheTable(t)
	_, _, ref, _, _ := th.PutExB(1, u64b(10), 0, t0, nil)
	// A read stamps the referenced bit: the next step spares.
	if _, hit, _ := th.GetExB(1, 0, t0, nil); !hit {
		t.Fatal("GetExB missed a live key")
	}
	if out := th.EvictStep(ref, t0); out != EvictSpare {
		t.Fatalf("first EvictStep = %v, want EvictSpare", out)
	}
	// Bit now clear, entry cold: second step evicts.
	if out := th.EvictStep(ref, t0); out != EvictEvicted {
		t.Fatalf("second EvictStep = %v, want EvictEvicted", out)
	}
	th.Reap(1)
	if _, hit, _ := th.GetExB(1, 0, t0, nil); hit {
		t.Fatal("evicted key still readable")
	}
	quiesce(t, h, th)
}

func TestCacheEvictStepExpired(t *testing.T) {
	h, th := newCacheTable(t)
	_, _, ref, _, _ := th.PutExB(1, u64b(10), t0+50, t0, nil)
	if out := th.EvictStep(ref, t1); out != EvictExpired {
		t.Fatalf("EvictStep past deadline = %v, want EvictExpired", out)
	}
	th.Reap(1)
	quiesce(t, h, th)
}

func TestCacheDelExOnExpiredReportsAbsent(t *testing.T) {
	h, th := newCacheTable(t)
	_, _, ref, _, _ := th.PutExB(1, u64b(10), t0+50, t0, nil)
	ok, reaped := th.DelEx(1, t1)
	if ok || reaped != 1 {
		t.Fatalf("DelEx on expired: ok=%v reaped=%d, want miss + 1 expiry", ok, reaped)
	}
	th.DropRef(ref)
	quiesce(t, h, th)
}

func TestCacheExpireAtShortensAndReaps(t *testing.T) {
	h, th := newCacheTable(t)
	_, _, ref, _, _ := th.PutExB(1, u64b(10), 0, t0, nil)
	if ok, _ := th.ExpireAt(1, t0+10, t0); !ok {
		t.Fatal("ExpireAt on live key reported absent")
	}
	if ok, reaped := th.ExpireAt(1, t1+10, t1); ok || reaped != 1 {
		t.Fatalf("ExpireAt on expired key: ok=%v reaped=%d", ok, reaped)
	}
	th.DropRef(ref)
	quiesce(t, h, th)
}

// TestEvictSpareKeepsRef pins EvictStep's spare contract: a spared ref
// stays with the caller, however often it is spared, until the caller
// re-queues it, evicts it or drops it. Dropping a twice-spared ref must
// leave nothing pinned once the table is cleared.
func TestEvictSpareKeepsRef(t *testing.T) {
	h, th := newCacheTable(t)
	_, _, ref, _, _ := th.PutExB(1, u64b(10), 0, t0, nil)
	for i := 0; i < 2; i++ {
		if _, hit, _ := th.GetExB(1, 0, t0, nil); !hit {
			t.Fatalf("touch %d missed", i)
		}
		if out := th.EvictStep(ref, t0); out != EvictSpare {
			t.Fatalf("EvictStep after touch %d = %v, want EvictSpare", i, out)
		}
	}
	if v, hit, _ := th.GetExB(1, 0, t0, nil); !hit || bu64(v) != 10 {
		t.Fatalf("twice-spared entry: %d %v, want resident 10", bu64(v), hit)
	}
	th.DropRef(ref)
	quiesce(t, h, th)
}

// TestCacheEvictRacesReaders is the tentpole property at the primitive
// level: concurrent readers against an evictor, resolved only by the
// paper's machinery. DebugChecks turns any read of a freed slot into a
// panic, so surviving this loop means no reader ever lost the race.
func TestCacheEvictRacesReaders(t *testing.T) {
	h := NewHashTable(256, 16, true)
	h.EnableByteValues(t.Name())
	h.EnableDebugChecks()
	wr := h.AttachCache()
	refs := make(chan CacheRef, 4096)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			th := h.AttachCache()
			defer th.Detach()
			x := uint64(r + 1)
			var dst []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				x = x*6364136223846793005 + 1
				dst, _, _ = th.GetExB((x>>33)%128, 0, t0, dst[:0])
			}
		}(r)
	}
	wg.Add(1)
	go func() { // evictor
		defer wg.Done()
		th := h.AttachCache()
		defer th.Detach()
		for ref := range refs {
			out := th.EvictStep(ref, t0)
			if out == EvictSpare {
				// Cold it down and try to finish it now.
				out = th.EvictStep(ref, t0)
			}
			switch out {
			case EvictSpare:
				// A reader touched it again: the ref is still ours
				// (EvictStep kept it), and this evictor does not
				// re-queue, so consume it.
				th.DropRef(ref)
			case EvictEvicted, EvictExpired:
				th.Reap(ref.Key)
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		k := uint64(i) % 128
		_, _, ref, _, err := wr.PutExB(k, u64b(k), 0, t0, nil)
		if err != nil {
			t.Fatalf("PutExB %d: %v", k, err)
		}
		if ref.Word != 0 {
			refs <- ref
		}
	}
	close(refs)
	close(stop)
	wg.Wait()
	quiesce(t, h, wr)
}

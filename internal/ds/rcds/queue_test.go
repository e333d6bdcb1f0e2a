package rcds

import (
	"sync"
	"testing"
)

func TestQueueSequentialFIFO(t *testing.T) {
	q := NewQueue(2)
	th := q.Attach()
	defer th.Detach()

	if _, ok := th.Dequeue(); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
	for i := uint64(1); i <= 100; i++ {
		th.Enqueue(i)
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := th.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := th.Dequeue(); ok {
		t.Fatal("dequeue from drained queue succeeded")
	}
}

func TestQueueInterleaved(t *testing.T) {
	q := NewQueue(2)
	th := q.Attach()
	defer th.Detach()
	th.Enqueue(1)
	th.Enqueue(2)
	if v, _ := th.Dequeue(); v != 1 {
		t.Fatalf("got %d, want 1", v)
	}
	th.Enqueue(3)
	if v, _ := th.Dequeue(); v != 2 {
		t.Fatalf("got %d, want 2", v)
	}
	if v, _ := th.Dequeue(); v != 3 {
		t.Fatalf("got %d, want 3", v)
	}
}

// MPMC conservation: every enqueued value is dequeued exactly once, and
// per-producer order is preserved (FIFO per producer).
func TestQueueConcurrentConservation(t *testing.T) {
	const producers = 3
	const consumers = 3
	const perProducer = 10000
	q := NewQueue(producers + consumers + 2)

	var wg sync.WaitGroup
	results := make([][]uint64, consumers)
	var remaining sync.WaitGroup
	remaining.Add(producers)

	done := make(chan struct{})
	go func() {
		remaining.Wait()
		close(done)
	}()

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := q.Attach()
			defer th.Detach()
			var got []uint64
			for {
				v, ok := th.Dequeue()
				if ok {
					got = append(got, v)
					continue
				}
				select {
				case <-done:
					// Drain once more after producers finish.
					if v, ok := th.Dequeue(); ok {
						got = append(got, v)
						continue
					}
					results[id] = got
					return
				default:
				}
			}
		}(c)
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer remaining.Done()
			th := q.Attach()
			defer th.Detach()
			for i := 0; i < perProducer; i++ {
				// Encode producer id in high bits, sequence in low.
				th.Enqueue(uint64(id)<<32 | uint64(i+1))
			}
		}(p)
	}
	wg.Wait()

	seen := map[uint64]bool{}
	lastSeq := map[uint64]uint64{}
	total := 0
	for c := range results {
		perProducerSeen := map[uint64]uint64{}
		for _, v := range results[c] {
			if seen[v] {
				t.Fatalf("value %#x dequeued twice", v)
			}
			seen[v] = true
			total++
			// FIFO per producer per consumer: a single consumer must see
			// each producer's values in increasing sequence order.
			p, s := v>>32, v&0xFFFFFFFF
			if s <= perProducerSeen[p] {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d",
					c, p, s, perProducerSeen[p])
			}
			perProducerSeen[p] = s
		}
		_ = lastSeq
	}
	if total != producers*perProducer {
		t.Fatalf("dequeued %d values, want %d", total, producers*perProducer)
	}

	// Memory: only the dummy remains after a drain pass.
	th := q.Attach()
	th.Detach()
	th = q.Attach()
	th.Detach()
	if live := q.LiveNodes(); live != 1 {
		t.Fatalf("LiveNodes = %d, want 1 (the dummy)", live)
	}
}

func TestQueueMemoryBounded(t *testing.T) {
	q := NewQueue(2)
	th := q.Attach()
	for i := uint64(0); i < 30000; i++ {
		th.Enqueue(i)
		th.Dequeue()
	}
	th.Detach()
	th = q.Attach()
	th.Detach()
	if live := q.LiveNodes(); live != 1 {
		t.Fatalf("LiveNodes = %d after churn, want 1", live)
	}
	if def := q.Deferred(); def != 0 {
		t.Fatalf("Deferred = %d at quiescence", def)
	}
}

// An idle handle must not pin the queue. Its last operation, a Dequeue
// of an empty queue, only read the dummy; once it returns nothing of its
// stays announced, so the nodes another handle dequeues afterwards (each
// linked to the next) are reclaimed while it stays attached. busy
// attaches first so that it, not the idle handle, owns the first dummy's
// biased count, whose merges would otherwise wait in the idle pid's inbox.
func TestQueueIdleHandleDoesNotPin(t *testing.T) {
	q := NewQueue(3)
	busy := q.Attach()
	idle := q.Attach()
	if _, ok := idle.Dequeue(); ok {
		t.Fatal("dequeued from an empty queue")
	}
	for i := uint64(0); i < 10000; i++ {
		busy.Enqueue(i)
		busy.Dequeue()
	}
	busy.th.Flush()
	if live := q.LiveNodes(); live != 1 {
		t.Fatalf("LiveNodes = %d with an idle handle attached, want 1 (the dummy)", live)
	}
	idle.Detach()
	busy.Detach()
}

package snaplease

import (
	"math"
	"sync"
	"testing"
)

func TestLeaseBasics(t *testing.T) {
	p := NewPool(2)
	if p.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", p.Cap())
	}
	if ma := p.MinActive(); ma != math.MaxUint64 {
		t.Fatalf("MinActive with no leases = %d, want MaxUint64", ma)
	}
	l1, ok := p.Acquire(0)
	if !ok || !l1.Valid() {
		t.Fatal("first Acquire failed")
	}
	l2, ok := p.Acquire(0)
	if !ok {
		t.Fatal("second Acquire failed")
	}
	if l2.TS() <= l1.TS() {
		t.Fatalf("timestamps not increasing: %d then %d", l1.TS(), l2.TS())
	}
	if _, ok := p.Acquire(0); ok {
		t.Fatal("third Acquire on a 2-slot pool succeeded")
	}
	if ma := p.MinActive(); ma != l1.TS() {
		t.Fatalf("MinActive = %d, want oldest lease %d", ma, l1.TS())
	}
	if p.Active() != 2 {
		t.Fatalf("Active = %d, want 2", p.Active())
	}
	l1.Release(0)
	if ma := p.MinActive(); ma != l2.TS() {
		t.Fatalf("MinActive after oldest release = %d, want %d", ma, l2.TS())
	}
	l1.Release(0) // idempotent
	var zero Lease
	zero.Release(0) // safe on the zero value
	l2.Release(0)
	if p.Active() != 0 {
		t.Fatalf("Active = %d after all releases, want 0", p.Active())
	}
	// A write "stamped now" is strictly newer than any released lease.
	if p.Now() <= l2.TS() {
		t.Fatalf("Now = %d not past last lease ts %d", p.Now(), l2.TS())
	}
}

// TestLeaseVisibilityOrder checks the clock contract the versioned map
// depends on: a stamp fixed before a lease is granted is ≤ the lease's
// TS, and a stamp fixed after is > it.
func TestLeaseVisibilityOrder(t *testing.T) {
	p := NewPool(4)
	before := p.Now()
	l, ok := p.Acquire(0)
	if !ok {
		t.Fatal("Acquire failed")
	}
	if before > l.TS() {
		t.Fatalf("stamp %d fixed before acquire exceeds lease ts %d", before, l.TS())
	}
	if after := p.Now(); after <= l.TS() {
		t.Fatalf("stamp %d fixed after acquire not past lease ts %d", after, l.TS())
	}
	l.Release(0)
}

// TestLeaseConcurrent hammers Acquire/Release against MinActive from
// many goroutines: the invariant is that MinActive never exceeds the
// timestamp of a lease known to be held throughout the scan.
func TestLeaseConcurrent(t *testing.T) {
	p := NewPool(8)
	anchor, ok := p.Acquire(0)
	if !ok {
		t.Fatal("anchor Acquire failed")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if l, ok := p.Acquire(0); ok {
					l.Release(0)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if ma := p.MinActive(); ma > anchor.TS() {
				t.Errorf("MinActive = %d exceeds held anchor lease ts %d", ma, anchor.TS())
				return
			}
		}
	}()
	wg.Wait()
	<-done
	anchor.Release(0)
	if p.Active() != 0 {
		t.Fatalf("Active = %d after quiescence, want 0", p.Active())
	}
}

// TestMinActiveHorizonUnderChurn races the held-lease count behind
// MinActive's no-scan path: goroutines churn Acquire/Release, so the
// count keeps crossing zero, while checkers take leases of their own and
// assert MinActive never exceeds the TS of a lease they hold. At
// quiescence the fast path must answer MaxUint64, and a claim left
// pending must force the conservative 0.
func TestMinActiveHorizonUnderChurn(t *testing.T) {
	p := NewPool(8)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				if l, ok := p.Acquire(0); ok {
					l.Release(0)
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l, ok := p.Acquire(0)
				if !ok {
					continue
				}
				for j := 0; j < 4; j++ {
					if ma := p.MinActive(); ma > l.TS() {
						t.Errorf("MinActive = %d exceeds held lease ts %d", ma, l.TS())
						l.Release(0)
						return
					}
				}
				l.Release(0)
			}
		}()
	}
	wg.Wait()
	if n := p.held.Load(); n != 0 {
		t.Fatalf("held count = %d at quiescence, want 0", n)
	}
	if ma := p.MinActive(); ma != math.MaxUint64 {
		t.Fatalf("MinActive = %d at quiescence, want MaxUint64", ma)
	}
	// A claim in progress: counted, slot published, clock not yet read.
	p.held.Add(1)
	p.slots[3].Store(pendingTS)
	if ma := p.MinActive(); ma != 0 {
		t.Fatalf("MinActive = %d with a claim pending, want 0", ma)
	}
	p.slots[3].Store(0)
	p.held.Add(-1)
	if p.Active() != 0 {
		t.Fatalf("Active = %d after quiescence, want 0", p.Active())
	}
}

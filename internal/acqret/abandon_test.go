package acqret

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAbandonedAnnouncementProtectsUntilAdoption is the acquire-retire half
// of the crashed-reader property: a handle announced by a dead processor is
// never ejected until a survivor adopts the processor, and is ejected
// promptly afterwards.
func TestAbandonedAnnouncementProtectsUntilAdoption(t *testing.T) {
	d := New(4)
	var src atomic.Uint64
	src.Store(0xABC0)

	crashed := d.Register()
	if got := d.Acquire(crashed, 0, &src); got != 0xABC0 {
		t.Fatalf("Acquire = %#x", got)
	}
	// The owner "dies" here: no Release, no Unregister.

	survivor := d.Register()
	d.Retire(survivor, 0xABC0)
	for i := 0; i < 3; i++ {
		if out := d.EjectAllLocal(survivor); len(out) != 0 {
			t.Fatalf("handle ejected while its announcing processor was merely dead, not adopted: %v", out)
		}
	}

	// A supervisor notices the death.
	d.Abandon(crashed)
	if d.AbandonedCount() != 1 {
		t.Fatalf("AbandonedCount = %d, want 1", d.AbandonedCount())
	}

	out := d.EjectAllLocal(survivor)
	if len(out) != 1 || out[0] != 0xABC0 {
		t.Fatalf("after adoption EjectAllLocal = %v, want [0xabc0]", out)
	}
	if d.AbandonedCount() != 0 {
		t.Fatalf("AbandonedCount = %d after adoption, want 0", d.AbandonedCount())
	}
	if d.Adopted() != 1 {
		t.Fatalf("Adopted = %d, want 1", d.Adopted())
	}
	d.Unregister(survivor)
}

// TestAbandonedRetiredListAdoptedBySurvivors is the crashed-writer half:
// retires sitting on a dead processor's local list are eventually ejected
// by a survivor, with the deferred counter staying consistent.
func TestAbandonedRetiredListAdoptedBySurvivors(t *testing.T) {
	d := New(4)
	crashed := d.Register()
	for h := uint64(1); h <= 10; h++ {
		d.Retire(crashed, h*8)
	}
	// Pull one handle onto the dead processor's flist so adoption has to
	// re-defer already-ejected entries too. This is a scan's classify
	// step, counted on the classifying processor as scanSteps counts it.
	p := &d.procs[crashed]
	p.flist = append(p.flist, p.rlist[0])
	p.rlist = p.rlist[1:]
	p.ejected.Add(1)
	if got := d.Deferred(); got != 9 {
		t.Fatalf("Deferred = %d with one of ten retires classified, want 9", got)
	}

	d.Abandon(crashed)

	survivor := d.Register()
	out := d.EjectAllLocal(survivor)
	if len(out) != 10 {
		t.Fatalf("survivor ejected %d handles from the dead processor, want 10", len(out))
	}
	if got := d.Deferred(); got != 0 {
		t.Fatalf("Deferred = %d after full adoption, want 0", got)
	}
	d.Unregister(survivor)
}

// TestAbandonedPidReissuedOnlyAfterAdoption checks the registry handshake:
// the dead id stays out of circulation until a survivor's scan adopts it,
// and the adopt hook runs before reissue.
func TestAbandonedPidReissuedOnlyAfterAdoption(t *testing.T) {
	var hooked []int
	d := New(3, WithAdoptHook(func(procID int) { hooked = append(hooked, procID) }))

	crashed := d.Register()
	d.Retire(crashed, 0x10)
	d.Abandon(crashed)

	survivor := d.Register()
	third := d.Register() // registry full: 3 ids out (1 abandoned)

	d.Unregister(third)
	// third's id is back, but crashed's must not be reissued yet: drain the
	// free stack and verify crashed's id is not among the obtainable ids.
	a := d.Register()
	if a == crashed {
		t.Fatalf("abandoned id %d reissued before adoption", crashed)
	}
	d.Unregister(a)

	d.EjectAllLocal(survivor) // adopts
	if len(hooked) != 1 || hooked[0] != crashed {
		t.Fatalf("adopt hook calls = %v, want [%d]", hooked, crashed)
	}

	// Now the id is reissuable.
	b, c := d.Register(), d.Register()
	if b != crashed && c != crashed {
		t.Fatalf("adopted id %d still out of circulation (got %d, %d)", crashed, b, c)
	}
	d.Unregister(b)
	d.Unregister(c)
	d.Unregister(survivor)
}

// TestAbandonWithActiveScanDiscardsCleanly: a processor that dies
// mid-incremental-scan must not double-eject the prefix it had already
// classified.
func TestAbandonWithActiveScanDiscardsCleanly(t *testing.T) {
	d := New(2, WithScanThreshold(1))
	crashed := d.Register()
	// Push enough retires to start a scan, then step it partway.
	n := d.thresholdK*d.announcedSlots() + scanSlack + 8
	for i := 0; i < n; i++ {
		d.Retire(crashed, uint64(i+1)*8)
	}
	preCrash := 0
	for i := 0; i < 5; i++ {
		// Eject both advances the scan and returns handles that became
		// safe; those count as applied by the owner before it died.
		if _, ok := d.Eject(crashed); ok {
			preCrash++
		}
	}
	d.Abandon(crashed)

	survivor := d.Register()
	var total int
	for {
		out := d.EjectAllLocal(survivor)
		if len(out) == 0 {
			break
		}
		total += len(out)
	}
	if total+preCrash != n {
		t.Fatalf("adopted ejects (%d) + pre-crash ejects (%d) = %d, want %d exactly once",
			total, preCrash, total+preCrash, n)
	}
	if d.Deferred() != 0 {
		t.Fatalf("Deferred = %d at quiescence", d.Deferred())
	}
	d.Unregister(survivor)
}

// TestDeferredSumsExactAcrossUnregisterAndAdoption: retire and eject
// counts live on the processor that made the call, so a handle retired on
// one processor and ejected on another (an orphan) leaves both counters
// wrong alone. Four processors retire and eject at once; one Unregisters
// mid-run with handles still on its lists, and one dies and is abandoned
// and then adopted by the survivors' scans. At quiescence the sums must be
// exact: Deferred is 0 and Stats reports retired == ejected == every
// Retire call made, while some single processor reads negative.
func TestDeferredSumsExactAcrossUnregisterAndAdoption(t *testing.T) {
	const ops = 20000
	const left = 5 // retires a leaving processor takes away unejected
	d := New(4, WithScanThreshold(1))
	var src atomic.Uint64
	src.Store(0x7770)
	var retires atomic.Int64
	var stop atomic.Bool

	// work retires ops distinct handles, each followed by two ejects, with
	// an acquire on the shared cell around every retire so scans see live
	// announcements; then it retires `left` more that nothing ejects.
	work := func(pid int, n int) {
		for i := 0; i < n || (n < 0 && !stop.Load()); i++ {
			d.Acquire(pid, 0, &src)
			d.Retire(pid, uint64(pid)<<40|uint64(i+1)<<3)
			retires.Add(1)
			d.Eject(pid)
			d.Eject(pid)
			d.Release(pid, 0)
		}
		for i := 0; i < left; i++ {
			d.Retire(pid, uint64(pid)<<40|uint64(1)<<39|uint64(i+1)<<3)
			retires.Add(1)
		}
	}

	survivors := []int{d.Register(), d.Register()}
	leaver, crashed := d.Register(), d.Register()
	var wg sync.WaitGroup
	for _, pid := range survivors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(pid, -1)
		}()
	}
	var gone sync.WaitGroup
	gone.Add(2)
	go func() {
		defer gone.Done()
		work(leaver, ops)
		d.Unregister(leaver)
	}()
	go func() {
		defer gone.Done()
		work(crashed, ops) // then dies without Unregister
	}()
	gone.Wait()
	d.Abandon(crashed)
	// Let the survivors' scans adopt the dead processor and the orphans
	// before they stop.
	for d.AbandonedCount() != 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	// Nothing is announced any more, so a full scan ejects everything on
	// a survivor's lists, adopted orphans included.
	for _, pid := range survivors {
		d.EjectAllLocal(pid)
		if n := d.PendingLocal(pid); n != 0 {
			t.Fatalf("pid %d still holds %d handles after a full scan with nothing announced", pid, n)
		}
	}
	for _, pid := range survivors {
		d.Unregister(pid)
	}
	if got := d.Deferred(); got != 0 {
		t.Fatalf("Deferred = %d at quiescence, want 0", got)
	}
	retired, ejected := d.Stats()
	if want := uint64(retires.Load()); retired != want || ejected != want {
		t.Fatalf("Stats = (retired %d, ejected %d), want both %d", retired, ejected, want)
	}
	negative := false
	for i := range d.procs {
		if d.procs[i].retired.Load() < d.procs[i].ejected.Load() {
			negative = true
		}
	}
	if !negative {
		t.Fatal("no processor ejected more than it retired: the orphans were never adopted across processors")
	}
}

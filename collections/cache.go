package collections

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdrc/internal/chaos"
	"cdrc/internal/ds/rcds"
	"cdrc/internal/obs"
)

// The cache personality (DESIGN.md §11) is a TTL-stamped rcds hash table
// plus an eviction index that holds only WEAK references to entries. The
// index can therefore be wrong for free — a record whose entry was
// deleted, expired, or replaced resolves through core.Upgrade, and the
// paper's machinery arbitrates every race with readers: a reader's
// snapshot keeps the payload alive until it lets go, and an Upgrade after
// the last strong reference ejects simply fails. No locks anywhere on the
// put, get, evict, or sweep paths.
//
// Values are bytes in the table's value plane (DESIGN.md §13). Arena
// backpressure is rerouted here: when the table's arena or a value size
// class is exhausted, SetEx synchronously pops index records and evicts
// (bounded attempts) instead of surfacing BUSY, so a capacity-capped
// cache churns where a plain map sheds. A capped shard is sized by its
// Capacity: the eviction ring holds 4 × Capacity records and the hash
// table has at most Capacity buckets, since no more entries can be
// resident.
//
// Crash model: simulated thread crashes (chaos.CrashSignal) may fire only
// at the cache's named points — cache.index.push, cache.evict.step,
// cache.sweep.op — plus the server's per-op boundary. At every such point
// the handle holds no counted reference and every index record it has
// popped but not yet consumed is parked in CacheHandle.inflight, which
// Abandon re-indexes before abandoning the pid state. That keeps the two
// conservation properties crash-proof: each unlink is counted exactly
// once (insert == evict + expire + del + resident), and each record's
// weak unit is consumed exactly once (the slot-free decision point is
// never doubled).

var (
	obsHit       = obs.NewCounter("cache.hit")
	obsMiss      = obs.NewCounter("cache.miss")
	obsInsert    = obs.NewCounter("cache.insert")
	obsEvict     = obs.NewCounter("cache.evict")
	obsExpire    = obs.NewCounter("cache.expire")
	obsDel       = obs.NewCounter("cache.del")
	obsUnindexed = obs.NewCounter("cache.index.unindexed")
	obsSweepDead = obs.NewCounter("cache.sweeper.dead")
	obsEvictNs   = obs.NewHistogram("cache.evict.ns")
)

var (
	chaosIndexPush = chaos.New("cache.index.push")
	chaosEvictStep = chaos.New("cache.evict.step")
	chaosSweepOp   = chaos.New("cache.sweep.op")
)

// clockStart anchors the cache's own monotonic clock: obs.NowNanos is a
// constant under the obsoff build, and TTL arithmetic must not care.
var clockStart = time.Now()

// nowNanos returns monotonic nanos since process start, |1 so a deadline
// of 0 can always mean "no TTL".
func nowNanos() uint64 { return uint64(time.Since(clockStart)) | 1 }

// CacheConfig sizes one cache shard.
type CacheConfig struct {
	// Name, when non-empty, prefixes the shard's obs gauges
	// ("<name>.resident.entries", ".resident.bytes", ".evicted.bytes",
	// ".index.records").
	Name string

	// ExpectedKeys sizes an uncapped shard: the hash table gets that
	// many buckets (load factor 1) and the eviction ring 4 × ExpectedKeys
	// records. A capped shard uses min(ExpectedKeys, Capacity) buckets
	// and 4 × Capacity records.
	ExpectedKeys int

	// MaxProcs bounds concurrent handles (0 = library default).
	MaxProcs int

	// Capacity caps the backing arena in entry slots (0 = uncapped).
	// Beyond it, SetEx evicts instead of failing. It also sizes the
	// shard (see ExpectedKeys).
	Capacity uint64

	// ValueCapacity caps each value size class at that many slabs (0 =
	// uncapped). Beyond it SetEx evicts and retries, exactly like
	// entry-slot backpressure. The slab pool's per-class gauges are
	// prefixed "<Name>.vals".
	ValueCapacity uint64

	// SweepInterval is the background expiry sweeper's period
	// (StartSweeper; 0 disables).
	SweepInterval time.Duration

	// DebugChecks turns reads of freed slots into panics.
	DebugChecks bool
}

const (
	// indexPerEntry is the eviction ring's record capacity per entry the
	// shard can hold (rounded up to a power of two). The ring needs
	// headroom over the resident set because unlinked entries leave stale
	// records behind until a pop cleans them.
	indexPerEntry = 4

	// sweepBatch is the number of index records a sweep tick examines.
	sweepBatch = 64

	// evictRetries bounds SetEx's evict-then-retry attempts under arena
	// backpressure.
	evictRetries = 16

	// starveWait bounds how long a SetEx that is still starved after
	// evictRetries attempts keeps retrying, napping starveNap between
	// rounds so peers that are descheduled reach an op boundary and
	// hand back the slots in their limbo (relieve). Only a shard with
	// no reclaimable slot anywhere waits it out and reports the error.
	starveWait = time.Second
	starveNap  = 100 * time.Microsecond

	// evictAhead is the number of victims an insert at capacity unlinks
	// before its one flush: the flush frees them all into the handle's
	// magazines, so the next evictAhead-1 inserts find a slot without
	// evicting or flushing.
	evictAhead = 4

	// evictBatch is extra pop budget per eviction round, over four
	// rotations of the current index.
	evictBatch = 32
)

// CacheStats is a point-in-time counter snapshot. At quiescence the
// identity Inserts == Evicts + Expires + Dels + resident holds exactly
// (CheckIdentity); under load it is approximate only because the fields
// are read one by one.
type CacheStats struct {
	Inserts, Evicts, Expires, Dels uint64
	Hits, Misses                   uint64
	Attempts                       uint64 // EvictStep/SweepStep calls
	Unindexed                      uint64 // records dropped on a full ring (entries stay resident)
}

// Cache is a lock-free TTL cache shard from uint64 keys to
// variable-length byte values: the same Michael-hash-table-over-DRC
// nodes as Map, plus an eviction index that holds only weak references
// to entries. Every race between an evictor and a reader is arbitrated
// by the reference-counting machinery, so the get, set, evict, and sweep
// paths take no locks. With a capped arena, SetEx absorbs backpressure
// by evicting instead of failing. It is the storage engine behind the
// server's cache mode and cmd/cdrc-load -cache. Safe for concurrent use
// through per-goroutine CacheHandles.
type Cache struct {
	t         *rcds.HashTable
	idx       *ring
	interval  time.Duration
	closed    atomic.Bool
	attachSeq atomic.Int64

	inserts, evicts, expires, dels atomic.Uint64
	hits, misses                   atomic.Uint64
	attempts, unindexed            atomic.Uint64

	// starved is set by a handle whose own evictions do not produce a
	// slot it can reach: the ring ran dry, or a retry after an eviction
	// and a flush failed again. The missing slots are in limbo on OTHER
	// threads — deferred decrements on their retired lists, freed slots
	// in their partial active magazines, which only their owners can
	// hand back. Every handle checks it at op boundaries and relieves by
	// draining its own deferred work and magazines to the shared pool
	// (CacheHandle.relieve); the starved handle clears it once an Alloc
	// lands.
	starved atomic.Bool

	sweepMu   sync.Mutex
	sweepStop chan struct{}
	swWG      sync.WaitGroup
}

// NewCache creates a cache shard.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.ExpectedKeys < 16 {
		cfg.ExpectedKeys = 16
	}
	// entries is the most the shard can hold resident: its arena cap,
	// or the expected key count when uncapped.
	entries := cfg.ExpectedKeys
	if cfg.Capacity > 0 && cfg.Capacity < uint64(entries) {
		entries = int(cfg.Capacity)
	}
	ringRecords := indexPerEntry * cfg.ExpectedKeys
	if cfg.Capacity > 0 {
		ringRecords = indexPerEntry * int(cfg.Capacity)
	}
	c := &Cache{
		t:        rcds.NewHashTable(entries, cfg.MaxProcs, true),
		idx:      newRing(ringRecords),
		interval: cfg.SweepInterval,
	}
	if cfg.Capacity > 0 {
		c.t.SetCapacity(cfg.Capacity)
	}
	vname := "" // auto-named when the shard is anonymous
	if cfg.Name != "" {
		vname = cfg.Name + ".vals"
	}
	vp := c.t.EnableByteValues(vname)
	if cfg.ValueCapacity > 0 {
		vp.SetCapacity(cfg.ValueCapacity)
	}
	if cfg.DebugChecks {
		c.t.EnableDebugChecks()
	}
	if cfg.Name != "" {
		eb := int64(rcds.EntryBytes())
		c.gauge(cfg.Name+".resident.entries", c.resident)
		c.gauge(cfg.Name+".resident.bytes", func() int64 { return c.resident() * eb })
		c.gauge(cfg.Name+".evicted.bytes", func() int64 { return int64(c.evicts.Load()) * eb })
		c.gauge(cfg.Name+".index.records", func() int64 { return int64(c.idx.len()) })
	}
	return c
}

// gauge registers an obs gauge that reads f until the shard is closed.
func (c *Cache) gauge(name string, f func() int64) {
	obs.RegisterGauge(name, func() (int64, bool) {
		if c.closed.Load() {
			return 0, false
		}
		return f(), true
	})
}

// resident is the counter-derived resident entry count (clamped; exact at
// quiescence, where CheckIdentity cross-checks it against a real scan).
func (c *Cache) resident() int64 {
	n := int64(c.inserts.Load()) - int64(c.evicts.Load()) -
		int64(c.expires.Load()) - int64(c.dels.Load())
	if n < 0 {
		n = 0
	}
	return n
}

// Stats snapshots the shard's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Inserts:   c.inserts.Load(),
		Evicts:    c.evicts.Load(),
		Expires:   c.expires.Load(),
		Dels:      c.dels.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Attempts:  c.attempts.Load(),
		Unindexed: c.unindexed.Load(),
	}
}

// Resident is the counter-derived resident entry count.
func (c *Cache) Resident() int64 { return c.resident() }

// LiveNodes reports currently allocated nodes (diagnostics).
func (c *Cache) LiveNodes() int64 { return c.t.LiveNodes() }

// Unreclaimed reports removed-but-not-freed nodes (diagnostics).
func (c *Cache) Unreclaimed() int64 { return c.t.Unreclaimed() }

// Attach registers the calling goroutine.
func (c *Cache) Attach() *CacheHandle {
	return &CacheHandle{
		c:  c,
		th: c.t.AttachCache(),
		id: int(c.attachSeq.Add(1)),
	}
}

// CheckIdentity verifies the conservation identity at quiescence: every
// insert is either still linked (resident, expired-but-unreaped included)
// or was unlinked by exactly one counted path. The shard's own sweeper
// keeps unlinking expired entries even when every caller is quiescent,
// so it is paused for the check: otherwise an expiry landing between the
// scan and the counter reads is counted both as resident and as expired.
func (c *Cache) CheckIdentity() error {
	c.sweepMu.Lock()
	sweeping := c.sweepStop != nil
	c.sweepMu.Unlock()
	if sweeping {
		c.stopSweeper()
		defer c.StartSweeper()
	}
	h := c.Attach()
	defer h.Close()
	// Time 0 precedes every deadline (nowNanos is ≥ 1), so this counts
	// every unmarked entry, expired-but-unreaped ones included.
	resident := uint64(h.th.ScanLiveB(0, -1, func(uint64, []byte) bool { return true }))
	s := c.Stats()
	if s.Inserts != s.Evicts+s.Expires+s.Dels+resident {
		return fmt.Errorf(
			"cache identity violated: inserts %d != evicts %d + expires %d + dels %d + resident %d",
			s.Inserts, s.Evicts, s.Expires, s.Dels, resident)
	}
	return nil
}

// StartSweeper launches the shard's background expiry sweeper (no-op if
// SweepInterval is zero or one is already running). The sweeper owns its
// own handle — worker–shard affinity is inherent, one Cache is one shard
// — and follows the abandonment protocol on simulated crashes: inflight
// records are re-indexed, pid state is adopted, and the sweeper respawns.
func (c *Cache) StartSweeper() {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	if c.interval <= 0 || c.sweepStop != nil || c.closed.Load() {
		return
	}
	c.sweepStop = make(chan struct{})
	c.swWG.Add(1)
	go c.sweeperLoop()
}

func (c *Cache) stopSweeper() {
	c.sweepMu.Lock()
	stop := c.sweepStop
	c.sweepStop = nil
	c.sweepMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	c.swWG.Wait()
}

func (c *Cache) sweeperLoop() {
	c.sweepMu.Lock()
	stop := c.sweepStop
	c.sweepMu.Unlock()
	if stop == nil { // stopped before the respawn got scheduled
		c.swWG.Done()
		return
	}
	h := c.Attach()
	defer func() {
		r := recover()
		if r == nil {
			h.Close()
			c.swWG.Done()
			return
		}
		if _, ok := r.(chaos.CrashSignal); !ok {
			c.swWG.Done()
			panic(r)
		}
		// Simulated sweeper death mid-tick: adopt and respawn, exactly
		// like a server worker.
		obsSweepDead.Inc(0)
		h.Abandon()
		c.swWG.Add(1)
		go c.sweeperLoop()
		c.swWG.Done()
	}()
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			chaosSweepOp.Fire()
			h.sweepPass(sweepBatch)
		}
	}
}

// Close stops the sweeper, drops every index record, unlinks every entry,
// and verifies full reclamation. Callers must have closed all handles.
func (c *Cache) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.stopSweeper()
	h := c.Attach()
	for {
		ref, ok := c.idx.pop()
		if !ok {
			break
		}
		h.th.DropRef(ref)
	}
	h.th.Clear()
	h.Close()
	for i := 0; i < 16 && c.t.LiveNodes() != 0; i++ {
		h := c.Attach()
		h.th.Clear()
		h.Close()
	}
	if n := c.t.LiveNodes(); n != 0 {
		return fmt.Errorf("cache: %d nodes leaked at close", n)
	}
	if n := c.t.ByteValues().Live(); n != 0 {
		return fmt.Errorf("cache: %d value slabs leaked at close", n)
	}
	return nil
}

// CacheHandle is a per-goroutine view of a Cache. Not safe for concurrent
// use.
type CacheHandle struct {
	c  *Cache
	th *rcds.CacheThread
	id int // obs counter shard

	// inflight parks every index record this handle has popped or minted
	// but not yet consumed or pushed. On a simulated crash, Abandon
	// re-indexes them so survivors can still evict those entries and no
	// weak unit is lost or doubled.
	inflight []rcds.CacheRef

	// pending is place's scratch stack of records waiting for a ring
	// slot, kept across calls so a warm insert allocates nothing.
	pending []rcds.CacheRef
}

func (h *CacheHandle) park(ref rcds.CacheRef) { h.inflight = append(h.inflight, ref) }

func (h *CacheHandle) unpark(ref rcds.CacheRef) {
	for i := range h.inflight {
		if h.inflight[i] == ref {
			h.inflight[i] = h.inflight[len(h.inflight)-1]
			h.inflight = h.inflight[:len(h.inflight)-1]
			return
		}
	}
	panic("cache: unpark of a record that was never parked")
}

// account attributes lazily-reaped expiries discovered by a read/write op.
func (h *CacheHandle) account(reaped int) {
	if reaped > 0 {
		h.c.expires.Add(uint64(reaped))
		obsExpire.Add(h.id, uint64(reaped))
	}
}

func deadline(now uint64, ttl time.Duration) uint64 {
	if ttl <= 0 {
		return 0
	}
	return (now + uint64(ttl.Nanoseconds())) & rcds.ExpDeadlineMask
}

// SetEx binds key to val's bytes with a TTL (0 = no expiry), appending a
// displaced live value's bytes to dst. Under arena backpressure — entry
// slots or any value size class at capacity, since one eviction frees
// both — it synchronously evicts index victims, flushes once, and
// retries, bounded by evictRetries; a shard still starved after that
// waits up to starveWait for its peers' relief, and only then does the
// error surface.
func (h *CacheHandle) SetEx(key uint64, val []byte, ttl time.Duration, dst []byte) (old []byte, existed bool, err error) {
	h.relieve()
	now := nowNanos()
	exp := deadline(now, ttl)
	var giveUp time.Time
	for attempt := 0; ; attempt++ {
		o, ex, ref, reaped, perr := h.th.PutExB(key, val, exp, now, dst)
		h.account(reaped)
		if perr == nil {
			if attempt > 0 && h.c.starved.Load() {
				h.c.starved.Store(false)
			}
			if ex {
				return o, true, nil
			}
			h.c.inserts.Add(1)
			obsInsert.Inc(h.id)
			h.park(ref)
			h.place(now, ref)
			return dst, false, nil
		}
		if attempt < evictRetries {
			h.evictForSpace(now, attempt)
			continue
		}
		// Enough victims are unlinked; their slots are in limbo on
		// peers. Keep draining and wait for relief instead of evicting
		// more of the resident set.
		if attempt == evictRetries {
			giveUp = time.Now().Add(starveWait)
		} else if time.Now().After(giveUp) {
			return dst, false, perr
		}
		h.starve()
		time.Sleep(starveNap)
	}
}

// evictForSpace relieves arena backpressure before a retry: unlink
// evictAhead victims, then flush once, which frees their slots into this
// handle's own magazines. Only when that is not enough — the ring ran
// dry, or this is a retry after an evict-and-flush round that still left
// the allocation failing — is the shard starved: it then also hands its
// own magazines to the shared pool and flags the shard, so peers do the
// same at their next op boundary. The victim count escalates per attempt
// because one unlink is not always one free slot — a victim can be held
// alive by a dying predecessor on another thread's retired list, and a
// whole clock rotation may be needed before referenced bits run out.
func (h *CacheHandle) evictForSpace(now uint64, attempt int) {
	target := min(evictAhead<<uint(attempt), 64)
	budget := 4*h.c.idx.len() + evictBatch
	unlinked := 0
	for i := 0; i < budget && unlinked < target; i++ {
		out := h.step(now)
		if out == evictNone {
			break
		}
		if out == rcds.EvictEvicted || out == rcds.EvictExpired {
			unlinked++
		}
	}
	if unlinked > 0 && attempt == 0 {
		h.th.Flush()
		return
	}
	h.starve()
	runtime.Gosched()
}

// starve flags the shard starved: the missing slots are in limbo on
// peers, and only their own op boundaries (relieve) can hand them back.
// It also flushes and publishes this handle's own magazines.
func (h *CacheHandle) starve() {
	h.th.Drain()
	if !h.c.starved.Load() {
		h.c.starved.Store(true)
	}
}

// relieve hands this thread's limbo slots back to the shared pool when
// some other handle is starving: applies deferred decrements and drains
// the private free-slot magazines to the global stack. One atomic load
// when nobody is starved.
func (h *CacheHandle) relieve() {
	if h.c.starved.Load() {
		h.th.Drain()
	}
}

// GetEx appends key's value to dst if present and unexpired, marking it
// recently used; a non-zero ttl also replaces the deadline (the GETEX
// touch).
func (h *CacheHandle) GetEx(key uint64, ttl time.Duration, dst []byte) ([]byte, bool) {
	h.relieve()
	now := nowNanos()
	dst, hit, reaped := h.th.GetExB(key, deadline(now, ttl), now, dst)
	h.account(reaped)
	if hit {
		h.c.hits.Add(1)
		obsHit.Inc(h.id)
	} else {
		h.c.misses.Add(1)
		obsMiss.Inc(h.id)
	}
	return dst, hit
}

// Get is GetEx without a TTL touch.
func (h *CacheHandle) Get(key uint64, dst []byte) ([]byte, bool) { return h.GetEx(key, 0, dst) }

// Scan visits up to limit live (unexpired) entries (limit < 0 for all),
// stopping early when fn returns false. Weakly consistent; never
// observes freed memory. val is handle-owned scratch, valid only until
// fn returns — copy to retain.
func (h *CacheHandle) Scan(limit int, fn func(key uint64, val []byte) bool) int {
	return h.th.ScanLiveB(nowNanos(), limit, fn)
}

// Expire replaces key's deadline (ttl <= 0 expires it immediately),
// reporting whether the key was present and live.
func (h *CacheHandle) Expire(key uint64, ttl time.Duration) bool {
	h.relieve()
	now := nowNanos()
	exp := deadline(now, ttl)
	if exp == 0 {
		exp = 1 // immediate: 1 is already in the past (nowNanos() >= 1)
	}
	ok, reaped := h.th.ExpireAt(key, exp, now)
	h.account(reaped)
	return ok
}

// Del removes key, reporting whether it was present and live.
func (h *CacheHandle) Del(key uint64) bool {
	h.relieve()
	now := nowNanos()
	ok, reaped := h.th.DelEx(key, now)
	h.account(reaped)
	if ok {
		h.c.dels.Add(1)
		obsDel.Inc(h.id)
	}
	return ok
}

// evictNone reports an empty index from resolve and step.
const evictNone = rcds.EvictOutcome(-1)

// resolve pops one index record, parks it, and resolves it against its
// entry: for capacity (EvictStep), or with sweep for expiry only
// (SweepStep). The outcome is tallied before resolve returns, with no
// chaos point in between. An EvictSpare record stays parked; the caller
// must place it. Returns evictNone on an empty index.
func (h *CacheHandle) resolve(now uint64, sweep bool) (rcds.CacheRef, rcds.EvictOutcome) {
	ref, ok := h.c.idx.pop()
	if !ok {
		return ref, evictNone
	}
	h.park(ref)
	chaosEvictStep.Fire()
	var t0 uint64
	if obs.Enabled() {
		t0 = nowNanos()
	}
	var out rcds.EvictOutcome
	if sweep {
		out = h.th.SweepStep(ref, now)
	} else {
		out = h.th.EvictStep(ref, now)
	}
	h.c.attempts.Add(1)
	h.tally(ref, out, t0)
	return ref, out
}

// tally accounts a resolved outcome: the counter, the unpark of a
// consumed record, and the physical unlink. EvictSpare is left to the
// caller, still parked.
func (h *CacheHandle) tally(ref rcds.CacheRef, out rcds.EvictOutcome, t0 uint64) {
	switch out {
	case rcds.EvictGone:
		h.unpark(ref)
		return
	case rcds.EvictExpired:
		h.c.expires.Add(1)
		obsExpire.Inc(h.id)
	case rcds.EvictEvicted:
		h.c.evicts.Add(1)
		obsEvict.Inc(h.id)
		if t0 != 0 {
			obsEvictNs.Observe(nowNanos() - t0)
		}
	default:
		return
	}
	h.unpark(ref)
	h.th.Reap(ref.Key)
}

// step resolves one index record for capacity: expired and stale records
// are cleaned, recently-used entries get their second chance and go back
// to the ring, and a cold live entry is evicted.
func (h *CacheHandle) step(now uint64) rcds.EvictOutcome {
	ref, out := h.resolve(now, false)
	if out == rcds.EvictSpare {
		h.place(now, ref)
	}
	return out
}

// sweepPass examines up to batch index records for expiry only, rotating
// live ones back to the tail (the clock hand). Returns expired count.
func (h *CacheHandle) sweepPass(batch int) int {
	now := nowNanos()
	expired := 0
	for i := 0; i < batch; i++ {
		ref, out := h.resolve(now, true)
		if out == evictNone {
			break
		}
		if out == rcds.EvictSpare {
			h.place(now, ref)
		}
		if out == rcds.EvictExpired {
			expired++
		}
	}
	// The sweeper frees but never allocates: drain its reclaimed slots
	// back to the shared pool or a capacity-capped arena strands them in
	// magazines no allocation ever reaches.
	h.th.Drain()
	return expired
}

// place returns parked records to the ring. A full ring evicts victims to
// make room (the clock guarantees termination: every spare rotation
// clears a referenced bit); a pathological race budget-exhausts into
// DropRef, leaving the entry resident but unindexed until Clear.
func (h *CacheHandle) place(now uint64, ref rcds.CacheRef) {
	pending := append(h.pending[:0], ref)
	budget := 2 * h.c.idx.cap()
	for len(pending) > 0 {
		r := pending[len(pending)-1]
		if h.c.idx.push(r) {
			pending = pending[:len(pending)-1]
			h.unpark(r)
			chaosIndexPush.Fire()
			continue
		}
		if budget--; budget < 0 {
			for _, r := range pending {
				h.unpark(r)
				h.th.DropRef(r)
				h.c.unindexed.Add(1)
				obsUnindexed.Inc(h.id)
			}
			h.pending = pending[:0]
			return
		}
		if victim, out := h.resolve(now, false); out == rcds.EvictSpare {
			pending = append(pending, victim)
		}
	}
	h.pending = pending
}

// Close detaches the handle. Idempotent.
func (h *CacheHandle) Close() {
	if h.th == nil {
		return
	}
	h.reindexInflight()
	h.th.Detach()
	h.th = nil
}

// Abandon marks the handle's per-processor state as died-without-Close:
// in-flight evictions are re-indexed for survivors (never consumed twice
// — the records' weak units travel with them), then the pid state is
// left for adoption (DESIGN.md §5). Call from a CrashSignal recover
// only; the handle must not be used afterwards. Idempotent.
func (h *CacheHandle) Abandon() {
	if h.th == nil {
		return
	}
	h.reindexInflight()
	h.th.Abandon()
	h.th = nil
}

func (h *CacheHandle) reindexInflight() {
	for _, ref := range h.inflight {
		for !h.c.idx.push(ref) {
			victim, ok := h.c.idx.pop()
			if !ok {
				continue
			}
			// Full ring during adoption: sacrifice the victim's index
			// record; its entry stays resident until Clear.
			h.th.DropRef(victim)
			h.c.unindexed.Add(1)
			obsUnindexed.Inc(h.id)
		}
	}
	h.inflight = nil
}

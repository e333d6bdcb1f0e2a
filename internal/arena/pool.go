package arena

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

	"cdrc/internal/chaos"
	"cdrc/internal/obs"
	"cdrc/internal/pid"
)

// ErrExhausted is returned by TryAlloc when no slot can be produced: the
// pool has reached its capacity cap with nothing recyclable on the calling
// processor's free lists, or a chaos fault forced the allocation to fail.
// Callers are expected to back off (drop the operation, flush deferred
// work, or retry later); Alloc treats the same condition as fatal.
var ErrExhausted = errors.New("arena: pool exhausted")

// Fault-injection points (inert single atomic loads unless an injector is
// installed; see internal/chaos). arena.alloc stalls allocations and - for
// TryAlloc only - forces typed failures; arena.free stalls the poisoning
// window; arena.refill deterministically permutes the magazine a processor
// has just acquired (from the global block stack or a fresh carve) to
// maximize handle-reuse/ABA pressure.
var (
	chaosAlloc  = chaos.New("arena.alloc")
	chaosFree   = chaos.New("arena.free")
	chaosRefill = chaos.New("arena.refill")
)

// Observability counters (inert single atomic loads unless obs.Enable has
// armed them; see internal/obs). At quiescence arena.alloc - arena.free
// equals the summed Live of every pool.
var (
	obsAlloc = obs.NewCounter("arena.alloc")
	obsFree  = obs.NewCounter("arena.free")

	// poolSeq names pools for the obs gauge registry in creation order.
	poolSeq atomic.Uint64
)

const (
	// fullChunkBytes sizes a pool's full chunk: 1<<chunkShift slots, the
	// largest power of two that fits in about this many bytes of slots
	// (never fewer than one block). Chunks ramp up to that size from one
	// block (DESIGN.md §8).
	fullChunkBytes = 1 << 20

	// blockSize is the transfer granularity of the allocator: free slots
	// are grouped into blocks of up to blockSize indices (chained through
	// their headers' nextFree fields), and all traffic between processors
	// and the shared pool moves whole blocks in O(1). It is also the
	// length of a pool's first chunk.
	blockShift = 6
	blockSize  = 1 << blockShift

	// blockIdxBits is the width of a slot index inside the block stack's
	// packed words. 40 bits matches the Handle index budget (DESIGN.md
	// §1); the remaining 24 high bits hold the ABA tag of the stack head
	// or the slot count of a block descriptor.
	blockIdxBits = 40
	blockIdxMask = 1<<blockIdxBits - 1

	// Header state magics. Anything else in the state word means the
	// header itself has been corrupted.
	stateLive = 0xA11FE001
	stateFree = 0xF3EED002
)

// Header is the per-object bookkeeping block that precedes every slot's
// value. It plays the role of the C++ library's control block: the
// reference-counting schemes keep their counter here, and the era-based SMR
// schemes (IBR, HE) stamp birth and retire eras here. The allocator itself
// uses only state, nextFree, and blockMeta.
type Header struct {
	state atomic.Uint32
	_     uint32

	// RefCount is the object's reference count. The arena zeroes it on
	// Alloc; its semantics belong entirely to the scheme using the pool.
	// The core scheme uses it as the *shared* word of a biased count
	// (count in the bits above its two flag bits; see DESIGN.md §12).
	RefCount atomic.Int64

	// Owner is the biased-count owner word (DESIGN.md §12): the owning
	// pid+1 in the high 32 bits, that pid's local count in the low 32;
	// 0 means unbiased. It is single-writer — only the thread currently
	// holding the named pid (or an exclusive reserver/adopter of that
	// pid) may store to it. Keeping it adjacent to RefCount puts both
	// halves of one object's count in the same cache line, and the
	// 64-byte Header total keeps them out of the neighbouring slot's
	// line whenever slots are line-aligned. Zeroed on Alloc; ignored by
	// schemes that do not bias.
	Owner atomic.Uint64

	// WeakCount is a second counter for schemes that support weak
	// references (the core library's cycle-breaking extension). Zeroed on
	// Alloc; ignored by schemes that do not use it.
	WeakCount atomic.Int64

	// BirthEra and RetireEra are stamped by era-based reclamation schemes.
	// The arena zeroes them on Alloc.
	BirthEra  atomic.Uint64
	RetireEra atomic.Uint64

	// nextFree chains free slots within a block (and within a processor's
	// magazines). Valid only while state == stateFree; touched only by the
	// slot's current owner.
	nextFree uint64

	// blockMeta is the block descriptor, valid only while this slot heads
	// a block on the global stack: bits 0..39 hold the next block's head
	// index, bits 40.. hold this block's slot count. It is atomic because
	// a racing popBlock may read it after the block has already been
	// popped and handed to a new owner; the stack head's ABA tag makes
	// such stale reads harmless, but they must still be data-race-free.
	blockMeta atomic.Uint64
}

// Live reports whether the header belongs to a currently allocated slot.
// It is a racy snapshot: a concurrent Free can change the answer. It exists
// for debugging and for the optimistic schemes that are allowed to read
// freed memory (e.g. classic split counts) to assert their own invariants.
func (h *Header) Live() bool { return h.state.Load() == stateLive }

type slot[T any] struct {
	hdr Header
	val T
}

// chunk k spans the index range [k<<chunkShift, (k+1)<<chunkShift) but
// holds only len(slots) slots: min(blockSize<<k, 1<<chunkShift), clamped
// to the capacity still uncarved when it was made. Indices past its end
// are never carved.
type chunk[T any] struct {
	slots []slot[T]
}

// magazine is a chain of free slot indices linked through the slots'
// nextFree fields, owned exclusively by one processor (or, in flight, by
// the single goroutine pushing or popping it on the block stack).
type magazine struct {
	head  uint64
	count int
}

// procCache is one processor's private allocation cache: an active
// magazine served by the fast path and a spare that buffers one full block
// of hysteresis, so alloc/free ping-pong at a block boundary never touches
// the shared stack. Both magazines are touched only by the owning
// processor (or by the single adopter draining an abandoned one); n mirrors
// their summed occupancy atomically so Stats can observe it from other
// goroutines. The pad defeats false sharing.
type procCache struct {
	active magazine
	spare  magazine
	n      atomic.Int64
	_      [128 - 48]byte
}

// Stats is a snapshot of a pool's allocation counters.
type Stats struct {
	Allocs uint64 // total successful Alloc calls
	Frees  uint64 // total Free calls
	Live   int64  // Allocs - Frees
	Slots  uint64 // slots ever carved out of chunks (handed to the free lists)

	// LiveHighWater is the largest Live value observed by any allocation.
	// It is maintained with a CAS max-loop, so it is exact even under
	// concurrent allocation.
	LiveHighWater int64

	// Capacity is the configured slot cap (0 = unbounded).
	Capacity uint64

	// FreeLocal is the summed occupancy of every processor's magazines.
	// Per-processor figures are available from Pool.FreeLocalPerProc
	// (which allocates; this field deliberately does not, because the obs
	// gauges snapshot Stats on every interval).
	FreeLocal int

	// FreeGlobal is the occupancy of the shared stack of free blocks.
	FreeGlobal int
}

// Pool is a slab allocator for values of type T, addressed by Handle.
// Alloc and Free are safe for concurrent use by distinct processors;
// Get and Hdr are safe for concurrent use by anyone holding a protected
// handle. The zero Pool is not usable; create one with NewPool.
//
// Allocation is constant-time with no locks on every path except carving
// fresh capacity: the fast path pops the calling processor's active
// magazine, and the slow path transfers one whole block between the
// processor and a lock-free Treiber stack of blocks (ABA-guarded by a
// 24-bit tag in the packed head word). growMu is taken only when the
// global stack is empty and fresh slots must be carved from chunks.
type Pool[T any] struct {
	chunks atomic.Pointer[[]*chunk[T]]

	// blocks is the global stack of free blocks: tag<<blockIdxBits | head
	// slot index of the top block (0 = empty). Every successful push or
	// pop increments the tag, so a CAS by a thread holding a stale head
	// can never succeed (the ABA guard). blocksN mirrors the stack's slot
	// occupancy for Stats.
	blocks  atomic.Uint64
	blocksN atomic.Int64

	// Carving state, guarded by growMu. nextFresh can skip the unused
	// tail of a short chunk's index range, so carved (not nextFresh)
	// counts the slots carved so far.
	growMu    sync.Mutex
	nextFresh uint64 // next never-allocated index; index 0 is reserved
	carved    uint64 // slots carved so far
	capSlots  uint64 // max slots ever carved; 0 = unbounded

	local []procCache

	// chunkShift/chunkMask give each chunk's index range; chunkShift is
	// derived from the slot size (chunkShiftFor). Immutable after NewPool.
	chunkShift uint
	chunkMask  uint64

	allocs atomic.Uint64
	frees  atomic.Uint64
	liveHW atomic.Int64 // exact monotone peak of allocs-frees (CAS max-loop)

	// DebugChecks enables poisoned-header verification on every Get and
	// Hdr. Tests turn this on; benchmarks leave it off. It must be set
	// before the pool is shared.
	DebugChecks bool
}

// PoolOpts parameterizes NewPoolWith. The zero value matches NewPool.
type PoolOpts struct {
	// MaxProcs bounds processor ids (0 = pid.DefaultMaxProcs).
	MaxProcs int

	// Name labels the pool's obs gauges ("" = auto "arena.pool.NNN").
	Name string
}

// NewPool creates a pool serving processors with ids in [0, maxProcs).
// If maxProcs <= 0, pid.DefaultMaxProcs is used.
func NewPool[T any](maxProcs int) *Pool[T] {
	return NewPoolWith[T](PoolOpts{MaxProcs: maxProcs})
}

// NewPoolWith is NewPool with explicit naming.
func NewPoolWith[T any](opts PoolOpts) *Pool[T] {
	maxProcs := opts.MaxProcs
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	shift := chunkShiftFor[T]()
	p := &Pool[T]{
		nextFresh:  1, // index 0 reserved so Handle(0) is unambiguously nil
		local:      make([]procCache, maxProcs),
		chunkShift: shift,
		chunkMask:  1<<shift - 1,
	}
	chunks := make([]*chunk[T], 0, 8)
	p.chunks.Store(&chunks)
	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("arena.pool.%03d", poolSeq.Add(1))
	}
	// Expose occupancy gauges through a weak pointer: obs must never keep
	// a dead pool's chunks alive, and the registration is pruned once the
	// pool is collected.
	wp := weak.Make(p)
	obs.RegisterPoolGauges(name, func() (obs.PoolGauges, bool) {
		q := wp.Value()
		if q == nil {
			return obs.PoolGauges{}, false
		}
		st := q.Stats()
		return obs.PoolGauges{
			Allocs: st.Allocs, Frees: st.Frees, Live: st.Live, Slots: st.Slots,
			LiveHighWater: st.LiveHighWater, Capacity: st.Capacity,
			FreeLocal: st.FreeLocal, FreeGlobal: st.FreeGlobal,
		}, true
	})
	return p
}

// chunkShiftFor returns log2 of a full chunk's slot count for slots of
// type T: the largest power of two whose slots fit in fullChunkBytes, and
// never less than one block.
func chunkShiftFor[T any]() uint {
	size := uint64(unsafe.Sizeof(slot[T]{}))
	shift := uint(blockShift)
	for size<<(shift+1) <= fullChunkBytes {
		shift++
	}
	return shift
}

// slotFor resolves an index to its slot. The caller must know the index is
// within the carved-out range (any index obtained from Alloc is).
func (p *Pool[T]) slotFor(idx uint64) *slot[T] {
	chunks := *p.chunks.Load()
	return &chunks[idx>>p.chunkShift].slots[idx&p.chunkMask]
}

// Get returns a pointer to the value addressed by h, clearing marks. It
// panics on nil handles and, when DebugChecks is set, on handles whose slot
// is not currently allocated (a use-after-free).
func (p *Pool[T]) Get(h Handle) *T {
	idx := h.Index()
	if idx == 0 {
		panic("arena: Get on nil handle")
	}
	s := p.slotFor(idx)
	if p.DebugChecks {
		if st := s.hdr.state.Load(); st != stateLive {
			panic(fmt.Sprintf("arena: use-after-free: Get on handle %#x (state %#x)", uint64(h), st))
		}
	}
	return &s.val
}

// Hdr returns the header of the slot addressed by h, clearing marks. Unlike
// Get it never checks liveness: several schemes legitimately touch headers
// of freed slots (e.g. to observe a stale reference count) and must be able
// to do so without tripping the debugging machinery.
func (p *Pool[T]) Hdr(h Handle) *Header {
	idx := h.Index()
	if idx == 0 {
		panic("arena: Hdr on nil handle")
	}
	return &p.slotFor(idx).hdr
}

// SetCapacity caps the total number of slots the pool may ever carve out
// of fresh chunks (0 = unbounded, the default). Once the cap is reached,
// allocation succeeds only by recycling freed slots: TryAlloc reports
// ErrExhausted when none are reachable from the calling processor, and
// Alloc panics. The cap may be set or raised at any time; lowering it
// below the already-carved count stops further growth but reclaims
// nothing.
func (p *Pool[T]) SetCapacity(slots uint64) {
	p.growMu.Lock()
	p.capSlots = slots
	p.growMu.Unlock()
}

// Alloc carves a fresh slot out of the arena (or recycles a freed one) and
// returns its unmarked handle. The slot's value and header counters are
// zeroed. pid identifies the calling processor's magazines. Alloc cannot
// fail: exhaustion of a capacity-capped pool panics, and a chaos fault
// fired at "arena.alloc" panics too - consuming the hit without effect
// would desynchronize the deterministic (seed, point, hit) schedule
// between Alloc and TryAlloc callers (use TryAlloc where allocation
// failure is a condition the caller handles).
func (p *Pool[T]) Alloc(procID int) Handle {
	if chaosAlloc.Fire() {
		panic(fmt.Sprintf("arena: injected fault: %v", ErrExhausted))
	}
	idx, ok := p.takeSlot(procID)
	if !ok {
		panic(fmt.Sprintf("arena: pool exhausted (capacity %d slots)", p.Stats().Capacity))
	}
	return FromIndex(idx)
}

// TryAlloc is Alloc with graceful failure: it returns ErrExhausted when
// the pool's capacity cap leaves no slot reachable from procID's
// magazines, or when a chaos fault at "arena.alloc" forces the failure. On
// failure the pool is unchanged and the caller is expected to back off.
func (p *Pool[T]) TryAlloc(procID int) (Handle, error) {
	if chaosAlloc.Fire() {
		return Nil, fmt.Errorf("injected fault: %w", ErrExhausted)
	}
	idx, ok := p.takeSlot(procID)
	if !ok {
		return Nil, ErrExhausted
	}
	return FromIndex(idx), nil
}

// takeSlot pops a slot from procID's active magazine (falling back to the
// spare, then to a whole-block refill), initializes its header, and records
// the allocation. It reports false when no block could be produced
// (capacity-capped pool with nothing recyclable).
func (p *Pool[T]) takeSlot(procID int) (uint64, bool) {
	pc := &p.local[procID]
	if pc.active.count == 0 {
		if pc.spare.count > 0 {
			pc.active, pc.spare = pc.spare, pc.active
		} else if !p.refill(pc) {
			return 0, false
		}
	}
	idx := pc.active.head
	s := p.slotFor(idx)
	pc.active.head = s.hdr.nextFree
	pc.active.count--
	pc.n.Add(-1)

	if st := s.hdr.state.Load(); st == stateLive {
		panic(fmt.Sprintf("arena: free list corruption: slot %d already live", idx))
	}
	var zero T
	s.val = zero
	// Header counters must read 0 on a fresh slot, but most recycled slots
	// already satisfy that (a refcount is zero when its object dies), so
	// test before writing: the loads are plain reads while the stores are
	// full atomic exchanges on the hot path.
	hdr := &s.hdr
	if hdr.RefCount.Load() != 0 {
		hdr.RefCount.Store(0)
	}
	if hdr.Owner.Load() != 0 {
		hdr.Owner.Store(0)
	}
	if hdr.WeakCount.Load() != 0 {
		hdr.WeakCount.Store(0)
	}
	if hdr.BirthEra.Load() != 0 {
		hdr.BirthEra.Store(0)
	}
	if hdr.RetireEra.Load() != 0 {
		hdr.RetireEra.Store(0)
	}
	hdr.nextFree = 0
	hdr.state.Store(stateLive)

	live := int64(p.allocs.Add(1)) - int64(p.frees.Load())
	for {
		cur := p.liveHW.Load()
		if live <= cur || p.liveHW.CompareAndSwap(cur, live) {
			break
		}
	}
	obsAlloc.Inc(procID)
	return idx, true
}

// Free returns the slot addressed by h to the calling processor's active
// magazine; when that magazine completes a full block it is parked as the
// spare or, if the spare is already full, pushed onto the global block
// stack in O(1). Free takes no locks. It panics on nil handles and on
// double frees. The slot's header is poisoned so that a subsequent checked
// Get fails, and the value is left in place: readers racing with Free are
// exactly the read-reclaim races the algorithms under test must prevent,
// and leaving the stale value visible makes such bugs reproducible rather
// than silently masked.
func (p *Pool[T]) Free(procID int, h Handle) {
	idx := h.Index()
	if idx == 0 {
		panic("arena: Free on nil handle")
	}
	chaosFree.Fire()
	s := p.slotFor(idx)
	if p.DebugChecks {
		// A biased slot must be unbiased (owner word folded and cleared)
		// before its object can die; freeing one means a count was lost.
		if ow := s.hdr.Owner.Load(); ow != 0 {
			panic(fmt.Sprintf("arena: free of biased slot %#x (owner word %#x)", uint64(h), ow))
		}
	}
	if !s.hdr.state.CompareAndSwap(stateLive, stateFree) {
		panic(fmt.Sprintf("arena: double free of handle %#x (state %#x)", uint64(h), s.hdr.state.Load()))
	}
	p.frees.Add(1)
	obsFree.Inc(procID)

	pc := &p.local[procID]
	s.hdr.nextFree = pc.active.head
	pc.active.head = idx
	pc.active.count++
	pc.n.Add(1)
	if pc.active.count == blockSize {
		if pc.spare.count == 0 {
			pc.active, pc.spare = magazine{}, pc.active
		} else {
			pc.n.Add(-blockSize)
			p.pushBlock(pc.active)
			pc.active = magazine{}
		}
	}
}

// refill installs a fresh active magazine in pc: one whole block popped
// from the global stack in O(1), or - only when the stack is empty - a
// block of fresh slots carved from chunk capacity under growMu. Called
// with pc.active empty; reports false when the pool is capacity-capped
// with nothing recyclable. A chaos fault at "arena.refill" permutes the
// incoming magazine (deterministically in the schedule seed) to maximize
// the variety of handle-reuse interleavings.
func (p *Pool[T]) refill(pc *procCache) bool {
	m, ok := p.popBlock()
	if !ok {
		if m, ok = p.carveBlock(); !ok {
			return false
		}
	}
	pc.active = m
	pc.n.Add(int64(m.count))
	if seed, ok := chaosRefill.FireSeed(); ok {
		p.shuffleMagazine(&pc.active, seed)
	}
	return true
}

// pushBlock pushes a magazine onto the global block stack: its head slot's
// header becomes the block descriptor (count + next-block link), and one
// CAS publishes it. Lock-free; O(1) per attempt.
func (p *Pool[T]) pushBlock(m magazine) {
	if m.count == 0 {
		return
	}
	hdr := &p.slotFor(m.head).hdr
	for {
		old := p.blocks.Load()
		hdr.blockMeta.Store(uint64(m.count)<<blockIdxBits | old&blockIdxMask)
		if p.blocks.CompareAndSwap(old, taggedHead(old, m.head)) {
			p.blocksN.Add(int64(m.count))
			return
		}
	}
}

// popBlock pops the top block off the global stack. The descriptor read
// between the head load and the CAS may be stale (the block may have been
// popped, consumed, and even recycled in between), but then the head's tag
// has advanced and the CAS fails harmlessly. Lock-free; O(1) per attempt.
func (p *Pool[T]) popBlock() (magazine, bool) {
	for {
		old := p.blocks.Load()
		idx := old & blockIdxMask
		if idx == 0 {
			return magazine{}, false
		}
		meta := p.slotFor(idx).hdr.blockMeta.Load()
		if p.blocks.CompareAndSwap(old, taggedHead(old, meta&blockIdxMask)) {
			count := int(meta >> blockIdxBits)
			p.blocksN.Add(-int64(count))
			return magazine{head: idx, count: count}, true
		}
	}
}

// taggedHead packs a new stack head word: the given top-block index with
// old's ABA tag incremented. The tag occupies the bits above blockIdxBits
// and wraps naturally on overflow.
func taggedHead(old, idx uint64) uint64 {
	return (old>>blockIdxBits+1)<<blockIdxBits | idx
}

// carveBlock carves up to blockSize fresh indices out of chunk capacity
// (respecting any configured cap) and returns them as a magazine. This is
// the only allocator path that takes a lock: growMu serializes carving
// and growth of the chunk directory. When the current chunk is shorter
// than its index range and full, carving resumes at the next chunk's
// first index.
func (p *Pool[T]) carveBlock() (magazine, bool) {
	var m magazine
	p.growMu.Lock()
	for m.count < blockSize && (p.capSlots == 0 || p.carved < p.capSlots) {
		idx := p.nextFresh
		k := idx >> p.chunkShift
		chunks := *p.chunks.Load()
		if k < uint64(len(chunks)) && idx&p.chunkMask == uint64(len(chunks[k].slots)) {
			k++
			idx = k << p.chunkShift
		}
		if k == uint64(len(chunks)) {
			p.addChunkLocked(idx)
		}
		p.nextFresh = idx + 1
		p.carved++
		s := p.slotFor(idx)
		s.hdr.state.Store(stateFree)
		s.hdr.nextFree = m.head
		m.head = idx
		m.count++
	}
	p.growMu.Unlock()
	return m, m.count > 0
}

// addChunkLocked appends the chunk whose first carved index is first.
// Chunk k holds min(blockSize<<k, 1<<chunkShift) slots, so capacity
// grows in proportion to what has been carved; under a cap it holds no
// more than the slots still uncarved. Caller holds growMu. The directory
// is replaced wholesale so concurrent readers can keep indexing the old
// copy without locks.
func (p *Pool[T]) addChunkLocked(first uint64) {
	k := first >> p.chunkShift
	n := uint64(1) << p.chunkShift
	if k < uint64(p.chunkShift-blockShift) {
		n = blockSize << k
	}
	if p.capSlots != 0 {
		n = min(n, first&p.chunkMask+p.capSlots-p.carved)
	}
	cur := *p.chunks.Load()
	grown := make([]*chunk[T], len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = &chunk[T]{slots: make([]slot[T], n)}
	p.chunks.Store(&grown)
}

// shuffleMagazine permutes m's chain with a splitmix64 Fisher-Yates,
// deterministic in seed. Called by the magazine's owner, no lock needed.
// Recycling order is normally LIFO; shuffling it maximizes the variety of
// handle-reuse interleavings (the ABA pressure chaos runs seek).
func (p *Pool[T]) shuffleMagazine(m *magazine, seed uint64) {
	n := m.count
	if n < 2 {
		return
	}
	idxs := make([]uint64, 0, n)
	for idx := m.head; len(idxs) < n; idx = p.slotFor(idx).hdr.nextFree {
		idxs = append(idxs, idx)
	}
	rng := seed
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		x := rng
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		return x ^ x>>31
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		idxs[i], idxs[j] = idxs[j], idxs[i]
	}
	head := uint64(0)
	for i := n - 1; i >= 0; i-- {
		p.slotFor(idxs[i]).hdr.nextFree = head
		head = idxs[i]
	}
	m.head = head
}

// DrainLocal pushes both of procID's magazines (active and spare) onto the
// global block stack, leaving the processor's cache empty. It exists for
// processor-id recycling after a thread crash: an abandoned id's magazines
// are unreachable (no live thread owns the id), so their slots would be
// stranded - and a future thread reissued the same id would inherit
// magazines it never built. The adopter of an abandoned id must drain here
// before the id is reissued. Safe only when no live thread owns procID.
func (p *Pool[T]) DrainLocal(procID int) {
	pc := &p.local[procID]
	if pc.active.count > 0 {
		pc.n.Add(-int64(pc.active.count))
		p.pushBlock(pc.active)
		pc.active = magazine{}
	}
	if pc.spare.count > 0 {
		pc.n.Add(-int64(pc.spare.count))
		p.pushBlock(pc.spare)
		pc.spare = magazine{}
	}
}

// FreeListLen returns the occupancy of procID's magazines (diagnostics;
// racy unless the owner is quiescent).
func (p *Pool[T]) FreeListLen(procID int) int {
	return int(p.local[procID].n.Load())
}

// Stats returns a snapshot of the pool's counters. Live and the occupancy
// gauges can transiently disagree with a concurrent workload's own
// accounting (a block in flight between a magazine and the global stack is
// briefly counted in neither) but are exact at quiescence. Stats performs
// no allocation: the obs pool gauges call it on every snapshot interval.
func (p *Pool[T]) Stats() Stats {
	a := p.allocs.Load()
	f := p.frees.Load()
	local := 0
	for i := range p.local {
		local += int(p.local[i].n.Load())
	}
	p.growMu.Lock()
	slots := p.carved
	capSlots := p.capSlots
	p.growMu.Unlock()
	return Stats{
		Allocs:        a,
		Frees:         f,
		Live:          int64(a) - int64(f),
		Slots:         slots,
		LiveHighWater: p.liveHW.Load(),
		Capacity:      capSlots,
		FreeLocal:     local,
		FreeGlobal:    int(p.blocksN.Load()),
	}
}

// FreeLocalPerProc returns each processor's magazine occupancy, indexed by
// processor id (diagnostics and tests; entries of abandoned-and-drained
// processors are zero). Unlike Stats it allocates its result.
func (p *Pool[T]) FreeLocalPerProc() []int {
	out := make([]int, len(p.local))
	for i := range p.local {
		out[i] = int(p.local[i].n.Load())
	}
	return out
}

// Live returns the number of currently allocated objects.
func (p *Pool[T]) Live() int64 {
	return int64(p.allocs.Load()) - int64(p.frees.Load())
}

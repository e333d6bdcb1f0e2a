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
	// largest power of two whose slots and side-table entries fit in about
	// this many bytes (never fewer than one block). Chunks ramp up to that
	// size from one block (DESIGN.md §8).
	fullChunkBytes = 1 << 20

	// blockSize is the transfer granularity of the allocator: free slots
	// are grouped into blocks of up to blockSize indices (chained through
	// their side-table links), and all traffic between processors and the
	// shared pool moves whole blocks in O(1). It is also the length of a
	// pool's first chunk.
	blockShift = 6
	blockSize  = 1 << blockShift

	// blockIdxBits is the width of a slot index inside the allocator's
	// packed words. 40 bits matches the Handle index budget (DESIGN.md
	// §1); the remaining 24 high bits hold the ABA tag of the stack head,
	// the slot count of a block descriptor, or a side-table state magic.
	blockIdxBits = 40
	blockIdxMask = 1<<blockIdxBits - 1

	// Slot state magics, stored in the high 24 bits of a side-table
	// entry's link word. Zero marks an index never carved; anything else
	// means the entry has been corrupted.
	stateLive = 0xA11FE0
	stateFree = 0xF3EED0

	// liveWord is a live slot's link word: the live magic and no link.
	liveWord = stateLive << blockIdxBits
)

// freeWord is the link word of a free slot whose successor in its
// magazine or block is next (0 ends the chain).
func freeWord(next uint64) uint64 { return stateFree<<blockIdxBits | next }

// Header is the count block inline before every counted slot's value
// (Pool). It plays the role of the C++ library's control block: the
// reference-counting schemes keep their counters here. The allocator
// keeps none of its own words here (they live in the side table, see
// slotMeta), so a 40-byte record and its header fill one cache line.
type Header struct {
	// RefCount is the object's reference count. The arena zeroes it on
	// Alloc; its semantics belong entirely to the scheme using the pool.
	RefCount atomic.Int64

	// The pad keeps the header at 24 bytes, so a counted 40-byte record
	// (an rcds listNode) and its header fill exactly one 64-byte slot and
	// every record starts 24 bytes into its line. A 56-byte slot would
	// change that layout and needs its own measurement.
	_ uint64

	// WeakCount is a second counter for schemes that support weak
	// references (the core library's cycle-breaking extension). Zeroed on
	// Alloc; ignored by schemes that do not use it.
	WeakCount atomic.Int64
}

// reset zeroes the count words. Most recycled slots already read zero (a
// refcount is zero when its object dies), so it tests before writing: the
// loads are plain reads while the stores are full atomic exchanges on the
// hot path.
func (h *Header) reset() {
	if h.RefCount.Load() != 0 {
		h.RefCount.Store(0)
	}
	if h.WeakCount.Load() != 0 {
		h.WeakCount.Store(0)
	}
}

// slotMeta is one slot's side-table entry: the allocator's bookkeeping,
// indexed like the slots but kept out of them.
type slotMeta struct {
	// link packs the slot's state magic (bits 40..63) with its free link
	// (bits 0..39): the next free index in its magazine or block while
	// the slot is free, 0 while it is live. One CAS flips a live slot to
	// free and links it, so a double free fails that CAS.
	link atomic.Uint64

	// aux is the block descriptor while the slot heads a block on the
	// global stack (bits 0..39: the next block's head index, bits 40..:
	// this block's slot count) and the slot's era word while it is live
	// (zeroed on Alloc; see Era). It is atomic because a racing popBlock
	// may read a descriptor after the block has been popped and the slot
	// reallocated; the stack head's ABA tag makes such stale reads
	// harmless, but they must still be data-race-free.
	aux atomic.Uint64
}

// counted is a Pool slot: the count header inline before the value.
type counted[T any] struct {
	hdr Header
	val T
}

// reset zeroes a slot's value and count words for a new allocation.
func (s *counted[T]) reset() {
	var zero T
	s.val = zero
	s.hdr.reset()
}

// chunk k spans the index range [k<<chunkShift, (k+1)<<chunkShift) but
// holds only len(slots) slots: min(blockSize<<k, 1<<chunkShift), clamped
// to the capacity still uncarved when it was made. Indices past its end
// are never carved. meta is the side table, one entry per slot.
type chunk[S any] struct {
	slots []S
	meta  []slotMeta
}

// magazine is a chain of free slot indices linked through the side
// table, owned exclusively by one processor (or, in flight, by the single
// goroutine pushing or popping it on the block stack).
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

// allocator is the slab allocator both pool kinds share, generic over the
// slot layout S: counted[T] for Pool, a bare T for Slabs. Alloc and Free
// are safe for concurrent use by distinct processors.
//
// Allocation is constant-time with no locks on every path except carving
// fresh capacity: the fast path pops the calling processor's active
// magazine, and the slow path transfers one whole block between the
// processor and a lock-free Treiber stack of blocks (ABA-guarded by a
// 24-bit tag in the packed head word). growMu is taken only when the
// global stack is empty and fresh slots must be carved from chunks.
type allocator[S any] struct {
	chunks atomic.Pointer[[]*chunk[S]]

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
	// derived from the slot size (chunkShiftFor). Immutable after init.
	chunkShift uint
	chunkMask  uint64

	allocs atomic.Uint64
	frees  atomic.Uint64
	liveHW atomic.Int64 // exact monotone peak of allocs-frees (CAS max-loop)

	// DebugChecks enables use-after-free verification on every Get. Tests
	// turn this on; benchmarks leave it off. It must be set before the
	// pool is shared.
	DebugChecks bool
}

// Pool is a slab allocator for counted values of type T, addressed by
// Handle: every slot is a Header followed by a T. Alloc and Free are safe
// for concurrent use by distinct processors; Get and Hdr are safe for
// concurrent use by anyone holding a protected handle. The zero Pool is
// not usable; create one with NewPool.
type Pool[T any] struct {
	allocator[counted[T]]
}

// Slabs is a headerless Pool: a slot is exactly a T, with no count words.
// It serves the value plane (internal/vals), whose slabs are owned by one
// record's Val word and never counted.
type Slabs[T any] struct {
	allocator[T]
}

// PoolOpts parameterizes NewPoolWith and NewSlabs. The zero value matches
// NewPool.
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
	p := &Pool[T]{}
	p.init(opts)
	return p
}

// NewSlabs creates a headerless pool of T slots.
func NewSlabs[T any](opts PoolOpts) *Slabs[T] {
	p := &Slabs[T]{}
	p.init(opts)
	return p
}

// init sets up a fresh allocator and registers its obs gauges.
func (a *allocator[S]) init(opts PoolOpts) {
	maxProcs := opts.MaxProcs
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	shift := chunkShiftFor[S]()
	a.nextFresh = 1 // index 0 reserved so Handle(0) is unambiguously nil
	a.local = make([]procCache, maxProcs)
	a.chunkShift = shift
	a.chunkMask = 1<<shift - 1
	chunks := make([]*chunk[S], 0, 8)
	a.chunks.Store(&chunks)
	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("arena.pool.%03d", poolSeq.Add(1))
	}
	// Expose occupancy gauges through a weak pointer: obs must never keep
	// a dead pool's chunks alive, and the registration is pruned once the
	// pool is collected.
	wp := weak.Make(a)
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
}

// slotBytes is what one slot of layout S costs: the slot itself plus its
// side-table entry.
func slotBytes[S any]() uint64 {
	var s S
	return uint64(unsafe.Sizeof(s) + unsafe.Sizeof(slotMeta{}))
}

// chunkShiftFor returns log2 of a full chunk's slot count for slots of
// layout S: the largest power of two whose slots and side-table entries
// fit in fullChunkBytes, and never less than one block.
func chunkShiftFor[S any]() uint {
	size := slotBytes[S]()
	shift := uint(blockShift)
	for size<<(shift+1) <= fullChunkBytes {
		shift++
	}
	return shift
}

// slotFor resolves an index to its slot. The caller must know the index is
// within the carved-out range (any index obtained from Alloc is).
func (a *allocator[S]) slotFor(idx uint64) *S {
	chunks := *a.chunks.Load()
	return &chunks[idx>>a.chunkShift].slots[idx&a.chunkMask]
}

// metaFor resolves an index to its side-table entry (same contract as
// slotFor).
func (a *allocator[S]) metaFor(idx uint64) *slotMeta {
	chunks := *a.chunks.Load()
	return &chunks[idx>>a.chunkShift].meta[idx&a.chunkMask]
}

// checkLive panics unless h's slot is allocated: DebugChecks' use-after-
// free detector, op naming the access.
func (a *allocator[S]) checkLive(op string, h Handle) {
	if w := a.metaFor(h.Index()).link.Load(); w != liveWord {
		panic(fmt.Sprintf("arena: use-after-free: %s on handle %#x (state %#x)", op, uint64(h), w>>blockIdxBits))
	}
}

// Get returns a pointer to the value addressed by h, clearing marks. It
// panics on nil handles and, when DebugChecks is set, on handles whose slot
// is not currently allocated (a use-after-free).
func (p *Pool[T]) Get(h Handle) *T {
	idx := h.Index()
	if idx == 0 {
		panic("arena: Get on nil handle")
	}
	if p.DebugChecks {
		p.checkLive("Get", h)
	}
	return &p.slotFor(idx).val
}

// Get is Pool.Get for a headerless slot.
func (p *Slabs[T]) Get(h Handle) *T {
	idx := h.Index()
	if idx == 0 {
		panic("arena: Get on nil handle")
	}
	if p.DebugChecks {
		p.checkLive("Get", h)
	}
	return p.slotFor(idx)
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

// Era returns the era word of the live slot addressed by h. The arena
// zeroes it on Alloc and otherwise leaves it to the pool's user: the
// era-based SMR schemes (IBR, HE) stamp a birth era in it, and the core
// scheme a retire timestamp while obs is enabled. The word shares storage
// with the allocator's block descriptor, so it is meaningful only while
// the slot is live, and a store to a freed slot's era word could corrupt
// the global block stack.
func (p *Pool[T]) Era(h Handle) *atomic.Uint64 {
	idx := h.Index()
	if idx == 0 {
		panic("arena: Era on nil handle")
	}
	if p.DebugChecks {
		p.checkLive("Era", h)
	}
	return &p.metaFor(idx).aux
}

// IsLive reports whether h addresses a currently allocated slot. It is a
// racy snapshot: a concurrent Free can change the answer. It exists for
// debugging and for the optimistic schemes that are allowed to read
// freed memory (e.g. classic split counts) to assert their own invariants.
func (a *allocator[S]) IsLive(h Handle) bool {
	return a.metaFor(h.Index()).link.Load() == liveWord
}

// SetCapacity caps the total number of slots the pool may ever carve out
// of fresh chunks (0 = unbounded, the default). Once the cap is reached,
// allocation succeeds only by recycling freed slots: TryAlloc reports
// ErrExhausted when none are reachable from the calling processor, and
// Alloc panics. The cap may be set or raised at any time; lowering it
// below the already-carved count stops further growth but reclaims
// nothing.
func (a *allocator[S]) SetCapacity(slots uint64) {
	a.growMu.Lock()
	a.capSlots = slots
	a.growMu.Unlock()
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
	s, h := p.alloc(procID)
	s.reset()
	return h
}

// TryAlloc is Alloc with graceful failure: it returns ErrExhausted when
// the pool's capacity cap leaves no slot reachable from procID's
// magazines, or when a chaos fault at "arena.alloc" forces the failure. On
// failure the pool is unchanged and the caller is expected to back off.
func (p *Pool[T]) TryAlloc(procID int) (Handle, error) {
	s, h, err := p.tryAlloc(procID)
	if err != nil {
		return Nil, err
	}
	s.reset()
	return h, nil
}

// Alloc is Pool.Alloc for a headerless slot: the slot is zeroed.
func (p *Slabs[T]) Alloc(procID int) Handle {
	s, h := p.alloc(procID)
	var zero T
	*s = zero
	return h
}

// TryAlloc is Pool.TryAlloc for a headerless slot.
func (p *Slabs[T]) TryAlloc(procID int) (Handle, error) {
	s, h, err := p.tryAlloc(procID)
	if err != nil {
		return Nil, err
	}
	var zero T
	*s = zero
	return h, nil
}

// alloc is Alloc's shared half: it takes a slot, which the caller zeroes.
func (a *allocator[S]) alloc(procID int) (*S, Handle) {
	if chaosAlloc.Fire() {
		panic(fmt.Sprintf("arena: injected fault: %v", ErrExhausted))
	}
	idx, s, ok := a.takeSlot(procID)
	if !ok {
		panic(fmt.Sprintf("arena: pool exhausted (capacity %d slots)", a.Stats().Capacity))
	}
	return s, FromIndex(idx)
}

// tryAlloc is TryAlloc's shared half: it takes a slot, which the caller
// zeroes.
func (a *allocator[S]) tryAlloc(procID int) (*S, Handle, error) {
	if chaosAlloc.Fire() {
		return nil, Nil, fmt.Errorf("injected fault: %w", ErrExhausted)
	}
	idx, s, ok := a.takeSlot(procID)
	if !ok {
		return nil, Nil, ErrExhausted
	}
	return s, FromIndex(idx), nil
}

// takeSlot pops a slot from procID's active magazine (falling back to the
// spare, then to a whole-block refill), marks it live with a zero era
// word, and records the allocation. It reports false when no block could
// be produced (capacity-capped pool with nothing recyclable).
func (a *allocator[S]) takeSlot(procID int) (uint64, *S, bool) {
	pc := &a.local[procID]
	if pc.active.count == 0 {
		if pc.spare.count > 0 {
			pc.active, pc.spare = pc.spare, pc.active
		} else if !a.refill(pc) {
			return 0, nil, false
		}
	}
	idx := pc.active.head
	c := (*a.chunks.Load())[idx>>a.chunkShift]
	off := idx & a.chunkMask
	m := &c.meta[off]
	w := m.link.Load()
	if w>>blockIdxBits != stateFree {
		panic(fmt.Sprintf("arena: free list corruption: slot %d has state %#x", idx, w>>blockIdxBits))
	}
	pc.active.head = w & blockIdxMask
	pc.active.count--
	pc.n.Add(-1)

	// A block's head slot still holds its descriptor; clear the era word
	// only when needed, as Header.reset does.
	if m.aux.Load() != 0 {
		m.aux.Store(0)
	}
	m.link.Store(liveWord)

	live := int64(a.allocs.Add(1)) - int64(a.frees.Load())
	for {
		cur := a.liveHW.Load()
		if live <= cur || a.liveHW.CompareAndSwap(cur, live) {
			break
		}
	}
	obsAlloc.Inc(procID)
	return idx, &c.slots[off], true
}

// Free returns the slot addressed by h to the calling processor's active
// magazine; when that magazine completes a full block it is parked as the
// spare or, if the spare is already full, pushed onto the global block
// stack in O(1). Free takes no locks. It panics on nil handles and on
// double frees. The slot is poisoned so that a subsequent checked Get
// fails, and the value is left in place: readers racing with Free are
// exactly the read-reclaim races the algorithms under test must prevent,
// and leaving the stale value visible makes such bugs reproducible rather
// than silently masked.
func (a *allocator[S]) Free(procID int, h Handle) {
	idx := h.Index()
	if idx == 0 {
		panic("arena: Free on nil handle")
	}
	chaosFree.Fire()
	m := a.metaFor(idx)
	pc := &a.local[procID]
	if !m.link.CompareAndSwap(liveWord, freeWord(pc.active.head)) {
		panic(fmt.Sprintf("arena: double free of handle %#x (state %#x)", uint64(h), m.link.Load()>>blockIdxBits))
	}
	a.frees.Add(1)
	obsFree.Inc(procID)

	pc.active.head = idx
	pc.active.count++
	pc.n.Add(1)
	if pc.active.count == blockSize {
		if pc.spare.count == 0 {
			pc.active, pc.spare = magazine{}, pc.active
		} else {
			pc.n.Add(-blockSize)
			a.pushBlock(pc.active)
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
func (a *allocator[S]) refill(pc *procCache) bool {
	m, ok := a.popBlock()
	if !ok {
		if m, ok = a.carveBlock(); !ok {
			return false
		}
	}
	pc.active = m
	pc.n.Add(int64(m.count))
	if seed, ok := chaosRefill.FireSeed(); ok {
		a.shuffleMagazine(&pc.active, seed)
	}
	return true
}

// pushBlock pushes a magazine onto the global block stack: its head slot's
// side-table aux word becomes the block descriptor (count + next-block
// link), and one CAS publishes it. Lock-free; O(1) per attempt.
func (a *allocator[S]) pushBlock(m magazine) {
	if m.count == 0 {
		return
	}
	meta := a.metaFor(m.head)
	for {
		old := a.blocks.Load()
		meta.aux.Store(uint64(m.count)<<blockIdxBits | old&blockIdxMask)
		if a.blocks.CompareAndSwap(old, taggedHead(old, m.head)) {
			a.blocksN.Add(int64(m.count))
			return
		}
	}
}

// popBlock pops the top block off the global stack. The descriptor read
// between the head load and the CAS may be stale (the block may have been
// popped, consumed, and its head slot even reallocated, its aux word now
// an era), but then the head's tag has advanced and the CAS fails
// harmlessly. Lock-free; O(1) per attempt.
func (a *allocator[S]) popBlock() (magazine, bool) {
	for {
		old := a.blocks.Load()
		idx := old & blockIdxMask
		if idx == 0 {
			return magazine{}, false
		}
		meta := a.metaFor(idx).aux.Load()
		if a.blocks.CompareAndSwap(old, taggedHead(old, meta&blockIdxMask)) {
			count := int(meta >> blockIdxBits)
			a.blocksN.Add(-int64(count))
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
func (a *allocator[S]) carveBlock() (magazine, bool) {
	var m magazine
	a.growMu.Lock()
	for m.count < blockSize && (a.capSlots == 0 || a.carved < a.capSlots) {
		idx := a.nextFresh
		k := idx >> a.chunkShift
		chunks := *a.chunks.Load()
		if k < uint64(len(chunks)) && idx&a.chunkMask == uint64(len(chunks[k].slots)) {
			k++
			idx = k << a.chunkShift
		}
		if k == uint64(len(chunks)) {
			a.addChunkLocked(idx)
		}
		a.nextFresh = idx + 1
		a.carved++
		a.metaFor(idx).link.Store(freeWord(m.head))
		m.head = idx
		m.count++
	}
	a.growMu.Unlock()
	return m, m.count > 0
}

// addChunkLocked appends the chunk whose first carved index is first.
// Chunk k holds min(blockSize<<k, 1<<chunkShift) slots, so capacity
// grows in proportion to what has been carved; under a cap it holds no
// more than the slots still uncarved. Caller holds growMu. The directory
// is replaced wholesale so concurrent readers can keep indexing the old
// copy without locks.
func (a *allocator[S]) addChunkLocked(first uint64) {
	k := first >> a.chunkShift
	n := uint64(1) << a.chunkShift
	if k < uint64(a.chunkShift-blockShift) {
		n = blockSize << k
	}
	if a.capSlots != 0 {
		n = min(n, first&a.chunkMask+a.capSlots-a.carved)
	}
	cur := *a.chunks.Load()
	grown := make([]*chunk[S], len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = &chunk[S]{slots: make([]S, n), meta: make([]slotMeta, n)}
	a.chunks.Store(&grown)
}

// shuffleMagazine permutes m's chain with a splitmix64 Fisher-Yates,
// deterministic in seed. Called by the magazine's owner, no lock needed.
// Recycling order is normally LIFO; shuffling it maximizes the variety of
// handle-reuse interleavings (the ABA pressure chaos runs seek).
func (a *allocator[S]) shuffleMagazine(m *magazine, seed uint64) {
	n := m.count
	if n < 2 {
		return
	}
	idxs := make([]uint64, 0, n)
	for idx := m.head; len(idxs) < n; idx = a.metaFor(idx).link.Load() & blockIdxMask {
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
		a.metaFor(idxs[i]).link.Store(freeWord(head))
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
func (a *allocator[S]) DrainLocal(procID int) {
	pc := &a.local[procID]
	if pc.active.count > 0 {
		pc.n.Add(-int64(pc.active.count))
		a.pushBlock(pc.active)
		pc.active = magazine{}
	}
	if pc.spare.count > 0 {
		pc.n.Add(-int64(pc.spare.count))
		a.pushBlock(pc.spare)
		pc.spare = magazine{}
	}
}

// FreeListLen returns the occupancy of procID's magazines (diagnostics;
// racy unless the owner is quiescent).
func (a *allocator[S]) FreeListLen(procID int) int {
	return int(a.local[procID].n.Load())
}

// Stats returns a snapshot of the pool's counters. Live and the occupancy
// gauges can transiently disagree with a concurrent workload's own
// accounting (a block in flight between a magazine and the global stack is
// briefly counted in neither) but are exact at quiescence. Stats performs
// no allocation: the obs pool gauges call it on every snapshot interval.
func (a *allocator[S]) Stats() Stats {
	al := a.allocs.Load()
	f := a.frees.Load()
	local := 0
	for i := range a.local {
		local += int(a.local[i].n.Load())
	}
	a.growMu.Lock()
	slots := a.carved
	capSlots := a.capSlots
	a.growMu.Unlock()
	return Stats{
		Allocs:        al,
		Frees:         f,
		Live:          int64(al) - int64(f),
		Slots:         slots,
		LiveHighWater: a.liveHW.Load(),
		Capacity:      capSlots,
		FreeLocal:     local,
		FreeGlobal:    int(a.blocksN.Load()),
	}
}

// FreeLocalPerProc returns each processor's magazine occupancy, indexed by
// processor id (diagnostics and tests; entries of abandoned-and-drained
// processors are zero). Unlike Stats it allocates its result.
func (a *allocator[S]) FreeLocalPerProc() []int {
	out := make([]int, len(a.local))
	for i := range a.local {
		out[i] = int(a.local[i].n.Load())
	}
	return out
}

// Live returns the number of currently allocated objects.
func (a *allocator[S]) Live() int64 {
	return int64(a.allocs.Load()) - int64(a.frees.Load())
}

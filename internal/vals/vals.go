// Package vals is the zero-GC byte-value plane (DESIGN.md §13): a
// size-class slab allocator for variable-length byte values, built as
// per-class instantiations of the arena's magazine/block allocator
// (DESIGN.md §8). A stored value is addressed by a single tagged word —
// a Ref — that rides a record's Val word exactly like an arena handle
// rides an AtomicRcPtr cell, and is released through the same
// retire/eject pipeline (core.Thread.RetireValue) so a reader that
// announced the word can never observe recycled slab bytes.
//
// Classes are the powers of two from 16B to 4KiB. Larger values (up to
// MaxLen) take the overflow path: a run of 4KiB head chunks, each
// holding 4,088 value bytes after an 8-byte link word that is the Ref
// of the rest of the value, ending in an inline-class slab sized to
// what is left. A chain is addressed by one Ref (class 15) and
// allocated/freed as a unit, so ownership and announcement protection
// of the Ref covers every slab in it.
//
// Only this package may touch slab bytes (scripts/check.sh lints the
// boundary): callers move bytes exclusively through Put/TryPut (copy in)
// and AppendTo (copy out).
package vals

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/chaos"
	"cdrc/internal/obs"
	"cdrc/internal/pid"
)

// Ref word layout (64 bits):
//
//	bit  63     : arena.ValueRefTag — distinguishes a Ref from a Handle
//	bits 41..62 : value length in bytes (22 bits, up to MaxLen)
//	bits 37..40 : size class (0..8 inline, 15 = chunked overflow)
//	bits  0..36 : the slab slot's arena.Handle word (index<<3; low 3
//	              mark bits always zero, so the acqret normalizer is the
//	              identity on Refs and retires stay unmarked)
//
// Ref 0 is the empty value: zero-length values allocate no slab.
const (
	refHandleBits = 37
	refHandleMask = 1<<refHandleBits - 1
	refClassShift = 37
	refClassMask  = 0xF
	refLenShift   = 41
	refLenBits    = 22

	// MaxLen is the largest storable value (the 22-bit length budget).
	MaxLen = 1<<refLenBits - 1

	// chainClass marks an overflow chain: a maxClassSize-byte head chunk
	// whose link word is the Ref of the remainder.
	chainClass = 0xF

	// minClassShift..maxClassShift span the inline classes: 16B..4KiB.
	minClassShift = 4
	maxClassShift = 12

	// NumClasses is the number of inline size classes.
	NumClasses = maxClassShift - minClassShift + 1

	// maxClassSize is the largest inline class (and the overflow chunk).
	maxClassSize = 1 << maxClassShift

	// chainLinkBytes leads every head chunk: the Ref of the remainder
	// (another chain, or the inline-class tail), leaving chainPayload
	// bytes of value data.
	chainLinkBytes = 8
	chainPayload   = maxClassSize - chainLinkBytes
)

// Fault-injection point: a value slab has been allocated and parked in
// the owner's inflight cell, but not yet published into a record.
// Crash-safe: the dying thread holds no counted references — adoption
// reclaims the parked slab (Adopt), mirroring the cache's in-flight
// eviction-record protocol.
var chaosInflight = chaos.New("vals.put.inflight")

// Observability counters. At quiescence vals.alloc - vals.free equals
// the summed live slots of every class (Pool.Live); a chain counts each
// head chunk and its tail once.
var (
	obsValAlloc = obs.NewCounter("vals.alloc")
	obsValFree  = obs.NewCounter("vals.free")

	// Per-class slab traffic under vals.class.<slot>.alloc/.free;
	// overflow-chain head chunks tally on vals.class.chain.* once per
	// chunk (they are carved from the largest class's pool but billed to
	// the chain so class-8 numbers stay single-slab), and a chain's tail
	// on its own class.
	obsClassAlloc = classCounters("alloc")
	obsClassFree  = classCounters("free")

	// poolSeq names anonymous pools in creation order.
	poolSeq atomic.Uint64
)

func classCounters(kind string) [NumClasses + 1]*obs.Counter {
	var a [NumClasses + 1]*obs.Counter
	for c := 0; c < NumClasses; c++ {
		a[c] = obs.NewCounter(fmt.Sprintf("vals.class.%d.%s", ClassSize(c), kind))
	}
	a[NumClasses] = obs.NewCounter("vals.class.chain." + kind)
	return a
}

// IsRef reports whether a Val-cell word is a value-slab reference.
func IsRef(w uint64) bool { return w&arena.ValueRefTag != 0 }

// Len returns the byte length encoded in ref (0 for the empty ref).
func Len(ref uint64) int {
	if ref == 0 {
		return 0
	}
	return int(ref >> refLenShift & MaxLen)
}

// ClassOf returns the size class index a value of n bytes lands in:
// 0..NumClasses-1 for the inline classes, NumClasses for the overflow
// chain. Exported so load generators can histogram their traffic.
func ClassOf(n int) int {
	c := 0
	for n > 1<<(minClassShift+c) && c < NumClasses-1 {
		c++
	}
	if n > maxClassSize {
		return NumClasses
	}
	return c
}

// ClassSize returns the slot size of inline class c.
func ClassSize(c int) int { return 1 << (minClassShift + c) }

func pack(class int, h arena.Handle, length int) uint64 {
	return arena.ValueRefTag | uint64(length)<<refLenShift |
		uint64(class)<<refClassShift | uint64(h)
}

func unpack(ref uint64) (class int, h arena.Handle, length int) {
	return int(ref >> refClassShift & refClassMask),
		arena.Handle(ref & refHandleMask),
		int(ref >> refLenShift & MaxLen)
}

// classPool erases the per-class arena.Slabs element type.
type classPool interface {
	tryAlloc(procID int) (arena.Handle, error)
	free(procID int, h arena.Handle)
	bytes(h arena.Handle) []byte
	drainLocal(procID int)
	freeListLen(procID int) int
	setCapacity(slots uint64)
	setDebug(on bool)
	stats() arena.Stats
}

type cls[T any] struct {
	p  *arena.Slabs[T]
	sl func(*T) []byte
}

func (c *cls[T]) tryAlloc(procID int) (arena.Handle, error) { return c.p.TryAlloc(procID) }
func (c *cls[T]) free(procID int, h arena.Handle)           { c.p.Free(procID, h) }
func (c *cls[T]) bytes(h arena.Handle) []byte               { return c.sl(c.p.Get(h)) }
func (c *cls[T]) drainLocal(procID int)                     { c.p.DrainLocal(procID) }
func (c *cls[T]) freeListLen(procID int) int                { return c.p.FreeListLen(procID) }
func (c *cls[T]) setCapacity(slots uint64)                  { c.p.SetCapacity(slots) }
func (c *cls[T]) setDebug(on bool)                          { c.p.DebugChecks = on }
func (c *cls[T]) stats() arena.Stats                        { return c.p.Stats() }

func newCls[T any](name string, class int, procs int, sl func(*T) []byte) *cls[T] {
	return &cls[T]{
		p: arena.NewSlabs[T](arena.PoolOpts{
			MaxProcs: procs,
			Name:     fmt.Sprintf("%s.c%04d", name, ClassSize(class)),
		}),
		sl: sl,
	}
}

// inflightCell is one pid's crash-adoptable parking spot for a slab
// allocated but not yet published (padded against false sharing).
type inflightCell struct {
	ref atomic.Uint64
	_   [56]byte
}

// Config parameterizes a Pool.
type Config struct {
	// Name prefixes the per-class obs gauges ("" = auto "vals.NNN").
	Name string

	// MaxProcs bounds processor ids (0 = pid.DefaultMaxProcs). Must
	// match the registry of whoever calls Put/Free — the value plane
	// shares the record domain's one pid space (CLAUDE.md).
	MaxProcs int

	// Capacity caps each class at the given slot count (0 = uncapped).
	// Beyond it TryPut returns an error wrapping arena.ErrExhausted.
	Capacity uint64

	// DebugChecks turns reads of freed slabs into panics.
	DebugChecks bool
}

// Pool is a set of per-class slab arenas sharing one processor-id space.
// Put/Free/AppendTo are safe for concurrent use by distinct processors.
type Pool struct {
	classes  [NumClasses]classPool
	inflight []inflightCell
	procs    int
}

// New creates a value-slab pool.
func New(cfg Config) *Pool {
	procs := cfg.MaxProcs
	if procs <= 0 {
		procs = pid.DefaultMaxProcs
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("vals.%03d", poolSeq.Add(1))
	}
	p := &Pool{procs: procs, inflight: make([]inflightCell, procs)}
	p.classes[0] = newCls(name, 0, procs, func(v *[16]byte) []byte { return v[:] })
	p.classes[1] = newCls(name, 1, procs, func(v *[32]byte) []byte { return v[:] })
	p.classes[2] = newCls(name, 2, procs, func(v *[64]byte) []byte { return v[:] })
	p.classes[3] = newCls(name, 3, procs, func(v *[128]byte) []byte { return v[:] })
	p.classes[4] = newCls(name, 4, procs, func(v *[256]byte) []byte { return v[:] })
	p.classes[5] = newCls(name, 5, procs, func(v *[512]byte) []byte { return v[:] })
	p.classes[6] = newCls(name, 6, procs, func(v *[1024]byte) []byte { return v[:] })
	p.classes[7] = newCls(name, 7, procs, func(v *[2048]byte) []byte { return v[:] })
	p.classes[8] = newCls(name, 8, procs, func(v *[4096]byte) []byte { return v[:] })
	if cfg.Capacity != 0 {
		p.SetCapacity(cfg.Capacity)
	}
	if cfg.DebugChecks {
		p.EnableDebugChecks()
	}
	return p
}

// SetCapacity caps every class at the given slot count (0 = uncapped).
func (p *Pool) SetCapacity(slots uint64) {
	for _, c := range p.classes {
		c.setCapacity(slots)
	}
}

// EnableDebugChecks turns reads of freed slabs into panics. Set before
// the pool is shared.
func (p *Pool) EnableDebugChecks() {
	for _, c := range p.classes {
		c.setDebug(true)
	}
}

// TryPut copies val into a freshly allocated slab (or chain) and
// returns its Ref word. Zero-length values return Ref 0 without
// allocating. A non-nil error wraps arena.ErrExhausted (backpressure:
// nothing was allocated). The returned ref is owned by the caller until
// published; an unpublished ref must be freed with Free.
func (p *Pool) TryPut(procID int, val []byte) (uint64, error) {
	n := len(val)
	switch {
	case n == 0:
		return 0, nil
	case n > MaxLen:
		return 0, fmt.Errorf("vals: value of %d bytes exceeds MaxLen %d", n, MaxLen)
	case n > maxClassSize:
		return p.putChain(procID, val)
	}
	class := ClassOf(n)
	h, err := p.classes[class].tryAlloc(procID)
	if err != nil {
		return 0, err
	}
	obsValAlloc.Inc(procID)
	obsClassAlloc[class].Inc(procID)
	copy(p.classes[class].bytes(h), val)
	return pack(class, h, n), nil
}

// putChain allocates an overflow chain for a value wider than the
// largest class. It builds the chain back to front: first the tail, an
// inline slab holding the last 9..4096 bytes, then each head chunk,
// whose link word is the Ref of the suffix built so far. All-or-nothing:
// a failed allocation frees that suffix and reports backpressure.
func (p *Pool) putChain(procID int, val []byte) (uint64, error) {
	heads := (len(val) - maxClassSize + chainPayload - 1) / chainPayload
	ref, err := p.TryPut(procID, val[heads*chainPayload:])
	if err != nil {
		return 0, err
	}
	cp := p.classes[NumClasses-1]
	for i := heads - 1; i >= 0; i-- {
		h, err := cp.tryAlloc(procID)
		if err != nil {
			p.Free(procID, ref)
			return 0, err
		}
		obsValAlloc.Inc(procID)
		obsClassAlloc[NumClasses].Inc(procID)
		b := cp.bytes(h)
		binary.LittleEndian.PutUint64(b, ref)
		copy(b[chainLinkBytes:], val[i*chainPayload:])
		ref = pack(chainClass, h, len(val)-i*chainPayload)
	}
	return ref, nil
}

// Free returns ref's slab (or every slab of its chain, following the
// link Refs) to procID's magazines. Legal only for a ref no reader can
// still be protecting: an unpublished ref, a finalizer running at count
// zero, or a word ejected from the retire pipeline. Ref 0 is a no-op.
func (p *Pool) Free(procID int, ref uint64) {
	for ref != 0 {
		class, h, _ := unpack(ref)
		if class != chainClass {
			p.classes[class].free(procID, h)
			obsValFree.Inc(procID)
			obsClassFree[class].Inc(procID)
			return
		}
		cp := p.classes[NumClasses-1]
		ref = binary.LittleEndian.Uint64(cp.bytes(h))
		cp.free(procID, h)
		obsValFree.Inc(procID)
		obsClassFree[NumClasses].Inc(procID)
	}
}

// AppendTo appends ref's bytes to dst and returns the extended slice.
// The caller must own ref or hold announcement protection on it for the
// duration of the call (core.Thread.AnnounceValue).
func (p *Pool) AppendTo(dst []byte, ref uint64) []byte {
	if ref == 0 {
		return dst
	}
	for {
		class, h, n := unpack(ref)
		if class != chainClass {
			return append(dst, p.classes[class].bytes(h)[:n]...)
		}
		b := p.classes[NumClasses-1].bytes(h)
		dst = append(dst, b[chainLinkBytes:]...)
		ref = binary.LittleEndian.Uint64(b)
	}
}

// SetInflight parks a freshly allocated, not-yet-published ref in
// procID's crash-adoptable cell (at most one at a time; the previous
// occupant must have been cleared). A simulated crash may fire between
// park and publish — Adopt reclaims the slab.
func (p *Pool) SetInflight(procID int, ref uint64) {
	p.inflight[procID].ref.Store(ref)
	chaosInflight.Fire()
}

// ClearInflight empties procID's parking cell: the ref was published
// into a record (which now owns it) or freed by its allocator.
func (p *Pool) ClearInflight(procID int) {
	p.inflight[procID].ref.Store(0)
}

// DrainLocal pushes every class's per-processor magazines (active and
// spare) onto the global block stacks. Same contract as the arena's
// DrainLocal: call from the owning thread, or for an abandoned pid that
// no live thread owns.
func (p *Pool) DrainLocal(procID int) {
	for _, c := range p.classes {
		c.drainLocal(procID)
	}
}

// Adopt reclaims an abandoned pid's value-plane state before the id is
// reissued: any parked in-flight slab is freed (it was never published,
// so the dead thread was its only owner) and every class's magazines
// drain to the global stacks. Called from the acqret adopt hook under
// the reap lock; the adopter exclusively owns procID's state.
func (p *Pool) Adopt(procID int) {
	if ref := p.inflight[procID].ref.Swap(0); ref != 0 {
		p.Free(procID, ref)
	}
	p.DrainLocal(procID)
}

// Live returns the number of live slab slots summed over all classes
// (a chain counts each head chunk and its tail). Zero at quiescent
// teardown.
func (p *Pool) Live() int64 {
	var n int64
	for _, c := range p.classes {
		n += c.stats().Live
	}
	return n
}

// FreeLocal returns the summed magazine occupancy of procID across all
// classes (diagnostics; racy unless the owner is quiescent).
func (p *Pool) FreeLocal(procID int) int {
	n := 0
	for _, c := range p.classes {
		n += c.freeListLen(procID)
	}
	return n
}

// ClassStats returns the arena counters of inline class c.
func (p *Pool) ClassStats(c int) arena.Stats { return p.classes[c].stats() }

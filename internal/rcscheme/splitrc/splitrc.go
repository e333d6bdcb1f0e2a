// Package splitrc reproduces the split reference count technique
// (Williams, C++ Concurrency in Action §7.2.4) that both Facebook's Folly
// and the just::thread library use for their lock-free atomic shared
// pointers.
//
// Each atomic cell packs an external counter next to the object handle in
// one word. As in Folly's atomic_shared_ptr, the cell pre-pays its
// readers: publishing an object into a cell adds a batch of cellBatch
// units to the object's internal count, and a reader takes one of them -
// a durable reference - by bumping the cell word's external count with a
// single CAS. Swapping the object out of the cell returns the units no
// reader took (cellBatch - external). The invariant is
//
//	internal = Σ durable references + Σ links from other objects
//	         + Σ over cells holding the object of (cellBatch - external),
//
// so the internal count only ever falls by units someone owned: it stays
// positive while any cell, link or reader holds the object, and reaches
// zero exactly once. A reader that finds half the batch taken tops it up.
// (Splitting the count the other way - readers pin, then add a durable
// unit and give the pin back, while a writer transfers outstanding pins
// at swap time - lets a give-back land before the writer's transfer and
// drive the count to zero under a live reader.)
//
// Two flavours are provided, mirroring the paper's comparison:
//
//   - Folly: a 48-bit-pointer/16-bit-counter single-word packing (here
//     44-bit handle / 20-bit counter), one CAS per protocol step.
//   - just::thread: the same algorithm over a double-word representation.
//     Go (like current hardware) has no double-word fetch-style atomics,
//     so the second word is simulated: every successful update also writes
//     a shadow word, approximating the extra cost the paper observed.
//
// The CAS loops here fail whenever *either* the handle or the external
// count changes, which is exactly why these schemes degrade under
// read-write contention in Figs. 6a-6b.
package splitrc

import (
	"fmt"
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/obs"
	"cdrc/internal/pid"
	"cdrc/internal/rcscheme"
)

// obsAllocDrop counts operations dropped on allocation failure (arena cap
// or injected fault); the name is shared across all rcscheme adapters.
var obsAllocDrop = obs.NewCounter("rcscheme.alloc.drop")

const (
	handleBits = 44
	handleMask = 1<<handleBits - 1
	extUnit    = 1 << handleBits

	// cellBatch is the number of internal units a cell pre-pays for its
	// readers. Each load takes one by bumping the cell word's external
	// count, which must stay below cellBatch (and within its 20 bits):
	// the reader that takes unit refillAt or later moves refillAt more
	// units into the batch.
	cellBatch = 1 << 19
	refillAt  = cellBatch / 2
)

func pack(ext uint64, h arena.Handle) uint64 {
	if uint64(h) > handleMask {
		panic(fmt.Sprintf("splitrc: handle %#x exceeds %d bits", uint64(h), handleBits))
	}
	return ext<<handleBits | uint64(h)
}

func handleOf(w uint64) arena.Handle { return arena.Handle(w & handleMask) }
func extOf(w uint64) uint64          { return w >> handleBits }

type stackNode struct {
	v    rcscheme.StackValue
	next arena.Handle // durable internal-count reference, set before publish
}

type cell struct {
	w      atomic.Uint64
	shadow atomic.Uint64 // written only in double-word emulation mode
	_      [48]byte
}

// Scheme implements rcscheme.StackScheme with split reference counts.
type Scheme struct {
	name  string
	dwEmu bool

	objs  *arena.Pool[rcscheme.Object]
	nodes *arena.Pool[stackNode]
	reg   *pid.Registry

	cells  []cell
	stacks []cell
}

// NewFolly creates the packed single-word variant.
func NewFolly(maxProcs int) *Scheme { return newScheme("Folly", false, maxProcs) }

// NewJustThread creates the double-word-emulated variant.
func NewJustThread(maxProcs int) *Scheme { return newScheme("just::thread", true, maxProcs) }

func newScheme(name string, dwEmu bool, maxProcs int) *Scheme {
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	return &Scheme{
		name:  name,
		dwEmu: dwEmu,
		objs:  arena.NewPool[rcscheme.Object](maxProcs),
		nodes: arena.NewPool[stackNode](maxProcs),
		reg:   pid.NewRegistry(maxProcs),
	}
}

// Name implements rcscheme.Scheme.
func (s *Scheme) Name() string { return s.name }

// cas performs the scheme's word CAS, touching the shadow word in
// double-word emulation mode.
func (s *Scheme) cas(c *cell, old, new uint64) bool {
	if !c.w.CompareAndSwap(old, new) {
		return false
	}
	if s.dwEmu {
		c.shadow.Store(new)
	}
	return true
}

func (s *Scheme) swap(c *cell, new uint64) uint64 {
	old := c.w.Swap(new)
	if s.dwEmu {
		c.shadow.Store(new)
	}
	return old
}

// Setup implements rcscheme.Scheme.
func (s *Scheme) Setup(ncells int) {
	s.teardownCells()
	s.cells = make([]cell, ncells)
}

// Live implements rcscheme.Scheme.
func (s *Scheme) Live() int64 { return s.objs.Live() + s.nodes.Live() }

// Teardown implements rcscheme.Scheme.
func (s *Scheme) Teardown() {
	s.teardownCells()
	s.teardownStacks()
}

func (s *Scheme) teardownCells() {
	if s.cells == nil {
		return
	}
	p := s.reg.Register()
	for i := range s.cells {
		w := s.swap(&s.cells[i], 0)
		if h := handleOf(w); !h.IsNil() {
			s.releaseCellWord(p, w, s.decObj)
		}
	}
	s.cells = nil
	s.reg.Release(p)
}

func (s *Scheme) teardownStacks() {
	if s.stacks == nil {
		return
	}
	p := s.reg.Register()
	for i := range s.stacks {
		w := s.swap(&s.stacks[i], 0)
		if h := handleOf(w); !h.IsNil() {
			s.releaseCellWord(p, w, s.decNode)
		}
	}
	s.stacks = nil
	s.reg.Release(p)
}

// releaseCellWord applies the swap-out accounting for a removed cell word:
// the cell returns the units of its batch that no reader took, i.e.
// internal -= cellBatch - ext.
func (s *Scheme) releaseCellWord(procID int, w uint64, dec func(int, arena.Handle, int64)) {
	dec(procID, handleOf(w), int64(extOf(w))-cellBatch)
}

// decObj adjusts an object's internal count by delta, freeing at zero.
func (s *Scheme) decObj(procID int, h arena.Handle, delta int64) {
	if c := s.objs.Hdr(h).RefCount.Add(delta); c == 0 {
		s.objs.Free(procID, h)
	} else if c < 0 {
		panic("splitrc: object count went negative")
	}
}

// decNode adjusts a node's internal count by delta, freeing at zero and
// iteratively releasing the chain the dead node owned.
func (s *Scheme) decNode(procID int, h arena.Handle, delta int64) {
	for !h.IsNil() {
		c := s.nodes.Hdr(h).RefCount.Add(delta)
		if c > 0 {
			return
		}
		if c < 0 {
			panic("splitrc: node count went negative")
		}
		next := s.nodes.Get(h).next
		s.nodes.Free(procID, h)
		h, delta = next, -1
	}
}

// Attach implements rcscheme.Scheme.
func (s *Scheme) Attach() rcscheme.Thread { return &thread{s: s, pid: s.reg.Register()} }

// AttachStack implements rcscheme.StackScheme.
func (s *Scheme) AttachStack() rcscheme.StackThread { return &thread{s: s, pid: s.reg.Register()} }

type thread struct {
	s   *Scheme
	pid int
}

// Detach implements rcscheme.Thread.
func (t *thread) Detach() { t.s.reg.Release(t.pid) }

// acquire takes a durable reference to the object in c: one CAS moves a
// unit of the cell's pre-paid batch to the caller. Returns the nil handle
// if the cell is empty.
func (t *thread) acquire(c *cell, hdrOf func(arena.Handle) *arena.Header, dec func(int, arena.Handle, int64)) arena.Handle {
	s := t.s
	for {
		w := c.w.Load()
		h := handleOf(w)
		if h.IsNil() {
			return arena.Nil
		}
		if !s.cas(c, w, w+extUnit) {
			continue
		}
		if extOf(w)+1 >= refillAt {
			t.refill(c, h, hdrOf, dec)
		}
		return h
	}
}

// refill tops up the batch of the cell that held h when the caller took
// unit refillAt or later: it adds refillAt units to h's internal count
// and takes them off the cell word's external count. The caller holds a
// unit of h, so h cannot be freed meanwhile. If the cell moved on, or
// another reader refilled first, the swap-out or that reader has settled
// the batch and the added units are taken back. (If h has come back to
// the cell - a stack head whose successor was popped - the units simply
// join its new batch.)
func (t *thread) refill(c *cell, h arena.Handle, hdrOf func(arena.Handle) *arena.Header, dec func(int, arena.Handle, int64)) {
	s := t.s
	hdrOf(h).RefCount.Add(refillAt)
	for {
		w := c.w.Load()
		if handleOf(w) != h || extOf(w) < refillAt {
			dec(t.pid, h, -refillAt)
			return
		}
		if s.cas(c, w, w-refillAt*extUnit) {
			return
		}
	}
}

// Load implements rcscheme.Thread.
func (t *thread) Load(i int) uint64 {
	s := t.s
	h := t.acquire(&s.cells[i], s.objs.Hdr, s.decObj)
	if h.IsNil() {
		return 0
	}
	v := s.objs.Get(h).V[0]
	s.decObj(t.pid, h, -1)
	return v
}

// Store implements rcscheme.Thread. Allocation failure (arena cap or
// injected fault) drops the store; the cell keeps its old value.
func (t *thread) Store(i int, val uint64) {
	s := t.s
	h, err := s.objs.TryAlloc(t.pid)
	if err != nil {
		obsAllocDrop.Inc(t.pid)
		return
	}
	s.objs.Hdr(h).RefCount.Store(cellBatch) // the cell's pre-paid batch
	obj := s.objs.Get(h)
	for w := range obj.V {
		obj.V[w] = val
	}
	old := s.swap(&s.cells[i], pack(0, h))
	if !handleOf(old).IsNil() {
		s.releaseCellWord(t.pid, old, s.decObj)
	}
}

// --- stack benchmark ------------------------------------------------------

// SetupStacks implements rcscheme.StackScheme.
func (s *Scheme) SetupStacks(nstacks int, init [][]rcscheme.StackValue) {
	s.teardownStacks()
	s.stacks = make([]cell, nstacks)
	p := s.reg.Register()
	for j := range init {
		for _, v := range init[j] {
			n := s.nodes.Alloc(p)
			s.nodes.Hdr(n).RefCount.Store(cellBatch)
			nd := s.nodes.Get(n)
			nd.v = v
			old := s.stacks[j].w.Load()
			nd.next = handleOf(old)
			s.stacks[j].w.Store(pack(0, n))
			s.linkOldHead(p, old)
		}
	}
	s.reg.Release(p)
}

// linkOldHead settles a head word that a new node has just replaced: the
// new node's next link takes one unit of the old head, and the cell
// returns the rest of its batch. The link's unit keeps the count positive.
func (s *Scheme) linkOldHead(procID int, w uint64) {
	if h := handleOf(w); !h.IsNil() {
		s.decNode(procID, h, 1+int64(extOf(w))-cellBatch)
	}
}

// Push implements rcscheme.StackThread. The full-word CAS validates that
// neither the head handle nor its external count changed, so the head
// word's batch settles exactly (linkOldHead).
func (t *thread) Push(j int, v rcscheme.StackValue) {
	s := t.s
	c := &s.stacks[j]
	n, err := s.nodes.TryAlloc(t.pid)
	if err != nil {
		obsAllocDrop.Inc(t.pid)
		return
	}
	s.nodes.Hdr(n).RefCount.Store(cellBatch) // the head cell's pre-paid batch
	nd := s.nodes.Get(n)
	nd.v = v
	for {
		w := c.w.Load()
		nd.next = handleOf(w)
		if s.cas(c, w, pack(0, n)) {
			s.linkOldHead(t.pid, w)
			return
		}
	}
}

// Pop implements rcscheme.StackThread.
func (t *thread) Pop(j int) (rcscheme.StackValue, bool) {
	s := t.s
	c := &s.stacks[j]
	for {
		h := t.acquire(c, s.nodes.Hdr, s.decNode2)
		if h.IsNil() {
			return 0, false
		}
		next := s.nodes.Get(h).next
		w := c.w.Load()
		for handleOf(w) == h {
			// Pre-pay the cell's batch for next before publishing it
			// (safe: h is alive and h.next holds a unit).
			if !next.IsNil() {
				s.nodes.Hdr(next).RefCount.Add(cellBatch)
			}
			if s.cas(c, w, pack(0, next)) {
				// The cell returns the untaken rest of h's batch; h's own
				// link to next is released when h dies.
				s.releaseCellWord(t.pid, w, s.decNode)
				v := s.nodes.Get(h).v
				s.decNode(t.pid, h, -1) // our durable unit
				return v, true
			}
			if !next.IsNil() {
				s.decNode(t.pid, next, -cellBatch)
			}
			w = c.w.Load()
		}
		// Head moved on: drop our reference and retry.
		s.decNode(t.pid, h, -1)
	}
}

// decNode2 adapts decNode to the acquire callback signature.
func (s *Scheme) decNode2(procID int, h arena.Handle, delta int64) { s.decNode(procID, h, delta) }

// Find implements rcscheme.StackThread: hand-over-hand durable references.
func (t *thread) Find(j int, v rcscheme.StackValue) bool {
	s := t.s
	cur := t.acquire(&s.stacks[j], s.nodes.Hdr, s.decNode2)
	for !cur.IsNil() {
		nd := s.nodes.Get(cur)
		if nd.v == v {
			s.decNode(t.pid, cur, -1)
			return true
		}
		next := nd.next
		if !next.IsNil() {
			// Safe: cur is alive, so cur.next's unit keeps next's count
			// at least one.
			s.nodes.Hdr(next).RefCount.Add(1)
		}
		s.decNode(t.pid, cur, -1)
		cur = next
	}
	return false
}

// EnableDebugChecks turns on arena use-after-free checking (tests only).
func (s *Scheme) EnableDebugChecks() {
	s.objs.DebugChecks = true
	s.nodes.DebugChecks = true
}

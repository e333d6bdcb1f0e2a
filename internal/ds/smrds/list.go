// Package smrds implements the three lock-free data structures of the
// paper's §7.2 evaluation - the Harris-Michael linked list, the Michael
// hash table, and the Natarajan-Mittal binary search tree - parameterized
// over a manual safe-memory-reclamation scheme (internal/smr). These are
// the structures the IBR benchmark suite applies EBR/HP/HPopt/IBR/HE to;
// the deferred-reference-counting versions live in internal/ds/rcds.
package smrds

import (
	"sync/atomic"

	"cdrc/internal/arena"
	"cdrc/internal/ds"
	"cdrc/internal/pid"
	"cdrc/internal/smr"
)

// deletedMark is the low bit set on a node's next pointer to mark the node
// logically deleted (Harris 2001).
const deletedMark = 0

// listNode is a Harris-Michael list node. next carries the deletion mark.
type listNode struct {
	Key  uint64
	next atomic.Uint64
}

// List is a sorted lock-free linked-list set (Harris-Michael), the
// structure of Fig. 7a. Reclamation is delegated to any smr scheme.
type List struct {
	base *listBase
	head paddedWord
}

type paddedWord struct {
	v atomic.Uint64
	_ [56]byte
}

// listBase holds the node pool and reclaimer shared by List and HashTable.
// All arena operations use the reclaimer thread's processor id, so the
// reclaimer's frees and the structure's allocations share one free list.
type listBase struct {
	pool *arena.Pool[listNode]
	rec  smr.Reclaimer
	kind smr.Kind
	name string
}

func newListBase(kind smr.Kind, structure string, maxProcs int) *listBase {
	if maxProcs <= 0 {
		maxProcs = pid.DefaultMaxProcs
	}
	b := &listBase{
		pool: arena.NewPool[listNode](maxProcs),
		kind: kind,
		name: structure + "/" + string(kind),
	}
	b.rec = smr.New(kind, smr.Config{
		MaxProcs: maxProcs,
		Free:     func(procID int, h arena.Handle) { b.pool.Free(procID, h) },
		Era:      b.pool.Era,
	})
	return b
}

// NewList creates a list-based set reclaimed by the given smr scheme.
func NewList(kind smr.Kind, maxProcs int) *List {
	return &List{base: newListBase(kind, "list", maxProcs)}
}

// Name implements ds.Set.
func (l *List) Name() string { return l.base.name }

// LiveNodes implements ds.Set.
func (l *List) LiveNodes() int64 { return l.base.pool.Live() }

// Unreclaimed implements ds.Set.
func (l *List) Unreclaimed() int64 { return l.base.rec.Unreclaimed() }

// Attach implements ds.Set.
func (l *List) Attach() ds.SetThread {
	return l.base.attach(&l.head.v)
}

func (b *listBase) attach(head *atomic.Uint64) *listThread {
	th := b.rec.Attach()
	return &listThread{
		b:    b,
		pool: b.pool,
		th:   th,
		head: head,
		ppid: th.ID(),
	}
}

// listThread runs list operations for one worker against a fixed head.
// The hash table reuses the same algorithm with a per-operation head.
type listThread struct {
	b    *listBase
	pool *arena.Pool[listNode]
	th   smr.Thread
	head *atomic.Uint64
	ppid int // processor id for arena free lists
}

func (t *listThread) poolPid() int { return t.ppid }

// position is the result of a list search: prev is the link that points at
// cur; cur is the first node with Key >= key (protected); next is cur's
// successor word.
type position struct {
	prev  *atomic.Uint64
	cur   arena.Handle
	next  arena.Handle
	found bool
}

// search locates key starting from head, unlinking marked nodes on the
// way (Michael 2002). Protection uses three rotating slots: the node
// owning prev, cur, and next.
func (t *listThread) search(head *atomic.Uint64, key uint64) position {
	pool := t.pool
retry:
	for {
		prev := head
		// Slot roles: 0 protects the node that owns prev (none at head),
		// 1 protects cur, 2 protects next; roles rotate as we advance.
		prevSlot, curSlot, nextSlot := 0, 1, 2
		cur := t.th.Protect(curSlot, prev).Unmarked()
		for {
			if cur.IsNil() {
				return position{prev: prev, cur: arena.Nil, found: false}
			}
			curN := pool.Get(cur)
			nextW := t.th.Protect(nextSlot, &curN.next)
			// Validate that cur is still prev's unmarked successor; if
			// not, a concurrent update won and we must restart.
			if arena.Handle(prev.Load()) != cur {
				continue retry
			}
			if nextW.HasMark(deletedMark) {
				// cur is logically deleted: unlink it.
				if !prev.CompareAndSwap(uint64(cur), uint64(nextW.Unmarked())) {
					continue retry
				}
				t.th.Retire(cur)
				cur = nextW.Unmarked()
				// next's protection now stands for cur.
				curSlot, nextSlot = nextSlot, curSlot
				continue
			}
			if curN.Key >= key {
				return position{prev: prev, cur: cur, next: nextW.Unmarked(), found: curN.Key == key}
			}
			prev = &curN.next
			cur = nextW.Unmarked()
			prevSlot, curSlot, nextSlot = curSlot, nextSlot, prevSlot
		}
	}
}

// insert adds key under head.
func (t *listThread) insert(head *atomic.Uint64, key uint64) bool {
	t.th.Begin()
	defer t.th.End()
	for {
		pos := t.search(head, key)
		if pos.found {
			return false
		}
		n := t.pool.Alloc(t.poolPid())
		t.th.OnAlloc(n)
		nd := t.pool.Get(n)
		nd.Key = key
		nd.next.Store(uint64(pos.cur))
		if pos.prev.CompareAndSwap(uint64(pos.cur), uint64(n)) {
			return true
		}
		// Never published: free directly.
		t.pool.Free(t.poolPid(), n)
	}
}

// delete removes key under head: mark, then attempt the physical unlink.
func (t *listThread) delete(head *atomic.Uint64, key uint64) bool {
	t.th.Begin()
	defer t.th.End()
	for {
		pos := t.search(head, key)
		if !pos.found {
			return false
		}
		curN := t.pool.Get(pos.cur)
		nextW := arena.Handle(curN.next.Load())
		if nextW.HasMark(deletedMark) {
			// Already being deleted by someone else; help by re-searching.
			continue
		}
		if !curN.next.CompareAndSwap(uint64(nextW), uint64(nextW.SetMark(deletedMark))) {
			continue
		}
		// Logically deleted by us; try the physical unlink (on failure a
		// later search unlinks it).
		if pos.prev.CompareAndSwap(uint64(pos.cur), uint64(nextW.Unmarked())) {
			t.th.Retire(pos.cur)
		} else {
			t.search(head, key)
		}
		return true
	}
}

// contains reports whether key is present under head.
func (t *listThread) contains(head *atomic.Uint64, key uint64) bool {
	t.th.Begin()
	defer t.th.End()
	return t.search(head, key).found
}

// Insert implements ds.SetThread.
func (t *listThread) Insert(key uint64) bool { return t.insert(t.head, key) }

// Delete implements ds.SetThread.
func (t *listThread) Delete(key uint64) bool { return t.delete(t.head, key) }

// Contains implements ds.SetThread.
func (t *listThread) Contains(key uint64) bool { return t.contains(t.head, key) }

// Detach implements ds.SetThread.
func (t *listThread) Detach() {
	t.th.Flush()
	t.th.Detach()
}

// Package arena provides a simulated manual-memory allocator.
//
// The paper's library manages raw C++ pointers whose reclamation is explicit
// and whose unused low bits are available for marking. Go has neither
// property: the garbage collector owns every pointer and forbids bit
// stealing. This package restores both by allocating objects in slab arenas
// and referring to them with 64-bit Handles (slot indices shifted left by
// three bits). Alloc and Free are explicit, freed slots are poisoned and
// recycled through per-processor free lists, and the low three bits of a
// Handle are reserved for user marks exactly like the "marked pointer"
// idiom of lock-free data structures (§3.1 of the paper).
//
// Recycling slots deliberately reintroduces the read-reclaim races and ABA
// hazards that safe memory reclamation exists to solve: a stale Handle may
// observe a poisoned slot (a detectable use-after-free) or a recycled
// object (the ABA case the algorithms under test must tolerate). Go's
// garbage collector only manages the arena's backing slabs, never
// individual objects, so reclamation behaviour is equivalent to the
// manually-managed C++ setting.
package arena

// Handle is a single-word reference to a slot in a Pool. The zero Handle is
// the nil reference. Bits 0-2 carry user marks; the remaining bits carry
// the slot index. Handles are plain words: they may be stored in atomic
// uint64 cells, compared with ==, and copied freely, mirroring raw pointers
// in the C++ implementation.
type Handle uint64

// Nil is the zero Handle, analogous to a null pointer.
const Nil Handle = 0

// markBits is the number of low bits reserved for user marks. Three bits
// match what 8-byte-aligned pointers provide on common architectures.
const markBits = 3

// MarkMask selects the user-mark bits of a Handle.
const MarkMask Handle = 1<<markBits - 1

// FromIndex builds an unmarked Handle from a slot index.
func FromIndex(idx uint64) Handle { return Handle(idx << markBits) }

// Index returns the slot index of h, ignoring marks.
func (h Handle) Index() uint64 { return uint64(h) >> markBits }

// Marks returns the user-mark bits of h.
func (h Handle) Marks() uint64 { return uint64(h & MarkMask) }

// WithMarks returns h with its mark bits replaced by marks&7.
func (h Handle) WithMarks(marks uint64) Handle {
	return (h &^ MarkMask) | (Handle(marks) & MarkMask)
}

// SetMark returns h with mark bit i (0..2) set.
func (h Handle) SetMark(i uint) Handle { return h | (1 << i & MarkMask) }

// HasMark reports whether mark bit i of h is set.
func (h Handle) HasMark(i uint) bool { return h&(1<<i&MarkMask) != 0 }

// Unmarked returns h with all mark bits cleared. Pool accessors accept
// marked handles and clear marks internally, but algorithms frequently need
// the canonical unmarked form for comparisons.
func (h Handle) Unmarked() Handle { return h &^ MarkMask }

// IsNil reports whether h is the nil reference, ignoring marks. A marked
// nil (used by some data structures to mark an empty link) is still nil.
func (h Handle) IsNil() bool { return h.Unmarked() == Nil }

// ValueRefTag marks a word as a value-slab reference (internal/vals)
// rather than a slot handle. Slot indices occupy bits 3..42 (the 40-bit
// index budget above the 3 mark bits), so no Handle ever sets bit 63;
// tagged words share the handle word space — including retire/eject
// pipelines — without ambiguity.
const ValueRefTag uint64 = 1 << 63

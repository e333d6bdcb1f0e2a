package core

import "testing"

// BenchmarkSnapshotHop walks a 16-node chain hand over hand with
// GetSnapshot/ReleaseSnapshot on one goroutine: the per-hop protection a
// traversal pays. ns/op is one full walk; ns/hop divides it by the hops.
func BenchmarkSnapshotHop(b *testing.B) {
	const hops = 16
	// newNodeDomain's finalizer without its DebugChecks: the hop is
	// timed, not the poison check every Deref would add.
	d := NewDomain[node](Config[node]{
		MaxProcs: 2,
		Finalizer: func(t *Thread[node], n *node) {
			t.Release(n.Next.LoadRaw())
			n.Next.Init(NilRcPtr)
		},
	})
	th := d.Attach()
	var head AtomicRcPtr
	next := NilRcPtr
	for i := hops - 1; i >= 0; i-- {
		next = th.NewRc(func(n *node) {
			n.Val = int64(i)
			n.Next.Init(next)
		})
	}
	head.Init(next)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := th.GetSnapshot(&head)
		for !s.IsNil() {
			n := th.GetSnapshot(&th.DerefSnapshot(s).Next)
			th.ReleaseSnapshot(&s)
			s = n
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")

	th.StoreMove(&head, NilRcPtr)
	drain(th)
	th.Detach()
	if live := d.Live(); live != 0 {
		b.Fatalf("Live = %d after the walks", live)
	}
}

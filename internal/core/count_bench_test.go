package core

import "testing"

// BenchmarkCountChurnOwner measures Clone/Release churn performed by the
// thread that allocated the object. Each iteration is one increment and
// one retire whose two ejects apply a decrement.
func BenchmarkCountChurnOwner(b *testing.B) {
	d := NewDomain[node](Config[node]{MaxProcs: 8})
	th := d.Attach()
	p := th.NewRc(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := th.Clone(p)
		th.Release(q)
	}
	b.StopTimer()
	th.Release(p)
	drain(th)
	th.Detach()
	if live := d.Live(); live != 0 {
		b.Fatalf("Live = %d after churn", live)
	}
}

// BenchmarkCountChurnCross is the same churn performed by a thread that
// did NOT allocate the object. With one count word it takes the same
// path as BenchmarkCountChurnOwner; the pair shows that the allocating
// thread gets no special treatment.
func BenchmarkCountChurnCross(b *testing.B) {
	d := NewDomain[node](Config[node]{MaxProcs: 8})
	owner := d.Attach()
	other := d.Attach()
	p := owner.NewRc(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := other.Clone(p)
		other.Release(q)
	}
	b.StopTimer()
	owner.Release(p)
	drain(other)
	drain(owner)
	other.Detach()
	owner.Detach()
	if live := d.Live(); live != 0 {
		b.Fatalf("Live = %d after churn", live)
	}
}

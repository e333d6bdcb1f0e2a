package rcds

// ChainLengths returns the number of nodes on each of h's bucket chains,
// walked under snapshot protection. The bucket-spread tests use it from
// the external test package, which imports internal/server (a package
// that imports this one).
func ChainLengths(h *HashTable) []int {
	t := h.Attach().(*hashThread)
	defer t.Detach()
	th := t.th
	lens := make([]int, len(h.buckets))
	for i := range h.buckets {
		cur := th.GetSnapshot(&h.buckets[i])
		for !cur.IsNil() {
			lens[i]++
			nxt := th.GetSnapshot(&th.DerefSnapshot(cur).next)
			th.ReleaseSnapshot(&cur)
			cur = nxt
		}
		th.ReleaseSnapshot(&cur)
	}
	return lens
}

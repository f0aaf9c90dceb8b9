package ag

import "unsafe"

// Chunk sizes of a slab, in bytes. Chunks grow geometrically from
// firstChunkBytes to maxChunkBytes, so a tape recording one small graph
// allocates about what it uses. The cap is the largest object Go's
// allocator serves from its per-P caches of size-classed spans; a larger
// chunk takes the large-object path (fresh zeroed spans, often faulted
// back in after the scavenger released them), which made a one-shot
// tape slower than the individual allocations the arena replaces.
const (
	firstChunkBytes = 4 << 10
	maxChunkBytes   = 32 << 10
)

// slab is a bump allocator over chunks of T. A request larger than the
// largest chunk gets a chunk of its own. Chunks never move, so what
// take returns stays valid until reset.
type slab[T any] struct {
	chunks [][]T // len is the used prefix of a chunk, cap its size
	cur    int   // the chunk take tries first
}

// take returns n zeroed elements.
func (s *slab[T]) take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur++ {
		c := s.chunks[s.cur]
		if used := len(c); n <= cap(c)-used {
			s.chunks[s.cur] = c[:used+n]
			return c[used : used+n : used+n]
		}
	}
	var zero T
	elem := int(unsafe.Sizeof(zero))
	size := firstChunkBytes / elem
	if k := len(s.chunks); k > 0 {
		size = min(2*cap(s.chunks[k-1]), maxChunkBytes/elem)
	}
	c := make([]T, n, max(size, n))
	s.chunks = append(s.chunks, c)
	return c[:n:n]
}

// reset zeroes every element handed out so far and rewinds to the
// first chunk, keeping the chunks for the next round of takes.
func (s *slab[T]) reset() {
	for i := 0; i <= s.cur && i < len(s.chunks); i++ {
		clear(s.chunks[i])
		s.chunks[i] = s.chunks[i][:0]
	}
	s.cur = 0
}

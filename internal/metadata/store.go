package metadata

// recStore is the in-memory record array, laid out as fixed-size chunks
// instead of one contiguous slice. Appending never reallocates existing
// chunks (a full chunk is immutable except for its spare capacity), so
// ingesting the millionth record costs the same as the first — no
// doubling copy — and a snapshot is just the chunk list: O(chunks) slice
// headers, not O(records) bytes. Mutated only under the repository write
// lock; snapshots are read lock-free (see snap).
type recStore struct {
	chunks [][]Record
	n      int
}

// storeChunkShift sizes chunks at 8192 records (~1 MiB of Record
// headers), matching the executor's scan-segment granularity.
const (
	storeChunkShift = 13
	storeChunkSize  = 1 << storeChunkShift
	storeChunkMask  = storeChunkSize - 1
)

// append adds rec at position s.n.
func (s *recStore) append(rec Record) {
	if s.n>>storeChunkShift == len(s.chunks) {
		s.chunks = append(s.chunks, make([]Record, 0, storeChunkSize))
	}
	c := len(s.chunks) - 1
	s.chunks[c] = append(s.chunks[c], rec)
	s.n++
}

// appendBulk adds recs at positions s.n… by copying them into the chunk
// list — replay's form of append: one copy per chunk touched, not one
// call per record.
func (s *recStore) appendBulk(recs []Record) {
	for len(recs) > 0 {
		if s.n>>storeChunkShift == len(s.chunks) {
			s.chunks = append(s.chunks, make([]Record, 0, storeChunkSize))
		}
		c := len(s.chunks) - 1
		k := min(len(recs), storeChunkSize-len(s.chunks[c]))
		s.chunks[c] = append(s.chunks[c], recs[:k]...)
		s.n += k
		recs = recs[k:]
	}
}

// at returns the record at pos. Caller holds at least a read lock and
// guarantees pos < s.n.
func (s *recStore) at(pos int) *Record {
	return &s.chunks[pos>>storeChunkShift][pos&storeChunkMask]
}

// snapshot captures an immutable view of the first s.n records. The
// chunk-header list is copied (the outer slice may be reallocated by
// later appends); the chunks themselves are shared — positions < n are
// never rewritten, and appends only touch spare capacity beyond each
// copied header's length, so the view is safe to read without locks
// while appends and compaction proceed.
func (s *recStore) snapshot() snap {
	return snap{chunks: append([][]Record(nil), s.chunks...), n: s.n}
}

// snap is an immutable point-in-time view over the record store — the
// "segment list" query plans execute against.
type snap struct {
	chunks [][]Record
	n      int
}

// at returns the record at pos (caller guarantees pos < s.n).
func (s snap) at(pos int) *Record {
	return &s.chunks[pos>>storeChunkShift][pos&storeChunkMask]
}

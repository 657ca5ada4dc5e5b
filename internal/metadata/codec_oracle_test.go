package metadata

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// readRecord is the differential oracle for decodeEntries: the
// record-at-a-time decoder replay used before the streaming one, kept
// verbatim (io.ReadFull into fresh buffers, no interning). It returns
// io.EOF cleanly at end of stream and ErrCorrupt (wrapped) for any
// malformed entry.
func readRecord(r io.Reader) (Record, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("metadata: entry header: %w", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxEntry {
		return Record{}, fmt.Errorf("metadata: entry length %d: %w", n, ErrCorrupt)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, fmt.Errorf("metadata: entry payload: %w", ErrCorrupt)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return Record{}, fmt.Errorf("metadata: entry crc: %w", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return Record{}, fmt.Errorf("metadata: entry checksum: %w", ErrCorrupt)
	}
	return decodePayload(payload, nil)
}

// countingReader tracks the bytes readRecord consumed.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readRecords is the oracle's segment loop: the records and byte length
// of the valid prefix, and the first malformed entry's error (nil at a
// clean end) — decodeEntries' contract.
func readRecords(data io.Reader) (recs []Record, validBytes int64, err error) {
	cr := &countingReader{r: data}
	for {
		rec, rerr := readRecord(cr)
		if rerr == io.EOF {
			return recs, validBytes, nil
		}
		if rerr != nil {
			return recs, validBytes, rerr
		}
		recs = append(recs, rec)
		validBytes = cr.n
	}
}

package metadata

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// Generated-input gates for the three on-disk formats: segment entries
// (the streaming decoder against the readRecord oracle), the MANIFEST
// and the statistics sidecar. Each has a fuzz target, whose seed corpus
// runs under plain `go test`, and a seeded property run of a few
// thousand structured mutations.

// sameRecords compares decoded records exactly — Value by bit pattern,
// so a CRC-valid NaN compares equal to itself.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
		x.Value, y.Value = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// checkSegmentDecode holds decodeSegment to the oracle on one input, in
// one mode: equal records, equal validBytes, the same error class, and
// allocation within a constant plus a multiple of the input.
func checkSegmentDecode(t testing.TB, data []byte, strict bool, count int) (recs []Record, corrupt bool) {
	t.Helper()
	wantRecs, wantValid, wantErr := readRecords(bytes.NewReader(data))
	if wantErr != nil && !errors.Is(wantErr, ErrCorrupt) {
		t.Fatalf("oracle failed outside ErrCorrupt: %v", wantErr)
	}
	fsys := vfs.NewFaultFS()
	f, err := fsys.OpenFile("seg", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, valid, err := decodeSegment(fsys, "seg", strict, count)
	runtime.ReadMemStats(&after)
	// The read window, one maxEntry copy-out and one tag map sized by a
	// uint16 are the constant; the records, their strings and tag maps
	// scale with the input.
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+64*len(data)); alloc > bound {
		t.Fatalf("decoding %d bytes allocated %d bytes, over the bound %d", len(data), alloc, bound)
	}
	if strict && wantErr != nil {
		if !errors.Is(err, ErrCorrupt) || recs != nil || valid != 0 {
			t.Fatalf("strict decode of a corrupt segment: %d records, %d bytes, err %v; oracle: %v", len(recs), valid, err, wantErr)
		}
		return nil, true
	}
	if err != nil {
		t.Fatalf("decode (strict=%v) failed: %v; oracle err: %v", strict, err, wantErr)
	}
	if valid != wantValid || !sameRecords(recs, wantRecs) {
		t.Fatalf("decode (strict=%v): %d records over %d bytes, oracle %d over %d\n got %v\nwant %v",
			strict, len(recs), valid, len(wantRecs), wantValid, recs, wantRecs)
	}
	return recs, wantErr != nil
}

// fuzzSegmentRecords cover the codec's shapes: tags, non-ASCII labels,
// negative fields, an empty-valued tag.
var fuzzSegmentRecords = []Record{
	{ID: 1, Kind: KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1,
		Label: "location", Tags: map[string]string{"value": "salle à manger", "étage": ""}},
	{ID: 2, Kind: KindObservation, Frame: 0, FrameEnd: 1, Person: 0, Other: -1,
		Label: "happy", Value: 0.83, Time: 40 * time.Millisecond},
	{ID: 3, Kind: KindEvent, Frame: 100, FrameEnd: 160, Person: 1, Other: 3,
		Label: "regard-croisé ↔", Value: 1, Time: 4 * time.Second, Tags: map[string]string{"camera": "C2"}},
	{ID: 9, Kind: KindAnnotation, Frame: 999999, FrameEnd: 999999, Person: 7, Other: 7,
		Label: "happy", Value: -1e300},
}

func encodeRecords(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

// longRecord encodes past the decoder's read window (segReadBuf), so it
// takes the copy-out path.
func longRecord(id uint64) Record {
	r := Record{ID: id, Kind: KindAnnotation, Frame: 7, FrameEnd: 8, Person: -1, Other: -1,
		Label: "transcript", Tags: make(map[string]string)}
	for i := 0; i < segReadBuf/1024+2; i++ {
		r.Tags[fmt.Sprintf("part%03d", i)] = strings.Repeat(string(rune('a'+i%26)), 1024)
	}
	return r
}

// withLength overwrites the first entry's length prefix.
func withLength(seg []byte, n uint32) []byte {
	out := append([]byte(nil), seg...)
	binary.LittleEndian.PutUint32(out, n)
	return out
}

// FuzzSegmentDecode: on arbitrary bytes, in both modes and under any
// count hint, the streaming decoder equals the oracle or both fail, and
// never panics or allocates past its bound.
func FuzzSegmentDecode(f *testing.F) {
	whole := encodeRecords(fuzzSegmentRecords)
	add := func(data []byte) {
		f.Add(data, true, 0)
		f.Add(data, false, len(fuzzSegmentRecords))
	}
	add(nil)
	add(whole)
	lastStart := len(encodeRecords(fuzzSegmentRecords[:len(fuzzSegmentRecords)-1]))
	for cut := lastStart; cut < len(whole); cut++ { // the last entry torn at every offset
		add(whole[:cut])
	}
	short := encodeRecords(fuzzSegmentRecords[1:3])
	for bit := 0; bit < len(short)*8; bit += 3 {
		flipped := append([]byte(nil), short...)
		flipped[bit/8] ^= 1 << (bit % 8)
		add(flipped)
	}
	for _, n := range []uint32{0, 1, minPayload - 1, maxEntry, maxEntry + 1, math.MaxUint32} {
		add(withLength(whole, n))
	}
	long := encodeRecords([]Record{fuzzSegmentRecords[1], longRecord(2), fuzzSegmentRecords[2]})
	add(long)
	add(long[:len(long)/2])
	f.Add(whole, true, -1)
	f.Add(whole, false, math.MaxInt)
	f.Fuzz(func(t *testing.T, data []byte, strict bool, count int) {
		checkSegmentDecode(t, data, strict, count)
	})
}

// mutate applies one structured mutation to a valid encoding.
func mutate(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	switch rng.Intn(6) {
	case 0: // intact
	case 1: // torn
		out = out[:rng.Intn(len(out)+1)]
	case 2: // bit rot
		for i := rng.Intn(3) + 1; i > 0; i-- {
			out[rng.Intn(len(out))] ^= 1 << rng.Intn(8)
		}
	case 3: // a byte run overwritten
		at := rng.Intn(len(out))
		for i := at; i < len(out) && i < at+rng.Intn(16)+1; i++ {
			out[i] = byte(rng.Intn(256))
		}
	case 4: // garbage appended
		for i := rng.Intn(80) + 1; i > 0; i-- {
			out = append(out, byte(rng.Intn(256)))
		}
	case 5: // a piece cut out of the middle
		at := rng.Intn(len(out))
		out = append(out[:at], out[min(len(out), at+rng.Intn(40)+1):]...)
	}
	return out
}

// randomRecord draws a record the codec can encode: labels and tags from
// small vocabularies with the odd fresh or non-ASCII one.
func randomRecord(rng *rand.Rand, id uint64) Record {
	labels := []string{"happy", "neutral", "sad", "eye-contact", "regard ↔", "x"}
	r := Record{ID: id, Kind: Kind(rng.Intn(int(numKinds))), Frame: rng.Intn(2000) - 1,
		Time: time.Duration(rng.Int63n(1e12)), Person: rng.Intn(10) - 1, Other: rng.Intn(10) - 1,
		Label: labels[rng.Intn(len(labels))], Value: rng.NormFloat64()}
	r.FrameEnd = r.Frame + rng.Intn(3)
	if rng.Intn(20) == 0 {
		r.Label = fmt.Sprintf("fresh-%d", rng.Int63())
	}
	if n := rng.Intn(8) - 4; n > 0 {
		r.Tags = make(map[string]string, n)
		for ; n > 0; n-- {
			r.Tags[fmt.Sprintf("k%d", rng.Intn(6))] = strings.Repeat("v", rng.Intn(40))
		}
	}
	return r
}

// TestSegmentDecodeProperty is FuzzSegmentDecode's deterministic run:
// seeded segments, structurally mutated, both modes.
func TestSegmentDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inputs := 5000
	if testing.Short() {
		inputs = 1000
	}
	var clean, prefixes, longDecoded int
	for i := 0; i < inputs; i++ {
		var recs []Record
		for n := rng.Intn(12); n > 0; n-- {
			recs = append(recs, randomRecord(rng, uint64(len(recs)+1)))
		}
		if i%50 == 0 {
			recs = append(recs, longRecord(uint64(len(recs)+1)), randomRecord(rng, uint64(len(recs)+2)))
		}
		data := mutate(rng, encodeRecords(recs))
		if rng.Intn(10) == 0 && len(data) >= 4 {
			data = withLength(data, []uint32{0, maxEntry, maxEntry + 1, uint32(rng.Int63())}[rng.Intn(4)])
		}
		count := []int{0, len(recs), -1, 1 << 40}[rng.Intn(4)]
		checkSegmentDecode(t, data, true, count)
		got, corrupt := checkSegmentDecode(t, data, false, count)
		switch {
		case !corrupt && len(got) > 0:
			clean++
		case corrupt && len(got) > 0:
			prefixes++
		}
		for _, r := range got {
			if len(r.Tags) > segReadBuf/1024 {
				longDecoded++
			}
		}
	}
	// Non-vacuity: the run decoded whole segments, valid prefixes of
	// damaged ones, and entries longer than the read window.
	if clean < inputs/10 || prefixes < inputs/10 || longDecoded < inputs/200 {
		t.Fatalf("vacuous run: %d clean, %d damaged-with-prefix, %d long entries decoded of %d inputs", clean, prefixes, longDecoded, inputs)
	}
}

// resealManifest recomputes the CRC trailer over whatever precedes it,
// so a mutated body reaches the entry parser — the hand-damaged,
// re-checksummed manifest.
func resealManifest(data []byte) []byte {
	body := string(data)
	if at := strings.LastIndex(body, "crc32 "); at >= 0 {
		body = body[:at]
	}
	return []byte(fmt.Sprintf("%scrc32 %08x\n", body, crc32.ChecksumIEEE([]byte(body))))
}

// checkParseManifest: ErrCorrupt, or a segment list that re-encodes to a
// manifest parsing back to itself.
func checkParseManifest(t testing.TB, data []byte) bool {
	t.Helper()
	segs, err := parseManifest(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("parseManifest(%q) failed outside ErrCorrupt: %v", data, err)
		}
		return false
	}
	again, err := parseManifest(encodeManifest(segs))
	if err != nil || !reflect.DeepEqual(again, segs) {
		t.Fatalf("parseManifest(%q) accepted %+v, which re-encodes to %+v (err %v)", data, segs, again, err)
	}
	return true
}

var fuzzManifest = []segMeta{
	{name: segFileName(1), bytes: 12345, count: 678, sealed: true, hasStats: true, statsCRC: 0xdeadbeef},
	{name: segFileName(2), bytes: 0, count: 0, sealed: true},
	{name: segFileName(17), bytes: 90, count: 12},
}

func FuzzParseManifest(f *testing.F) {
	good := encodeManifest(fuzzManifest)
	f.Add(good)
	f.Add([]byte(nil))
	f.Add(good[:len(good)/2])
	for _, edit := range [][2]string{
		{"12345", "-12345"}, {"678", "678 extra"}, {"000002.seg", "000001.seg"}, {"sealed 0 0", "active 0 0"},
		{"sts=deadbeef", "sts=beef"}, {"sts=deadbeef", "sts=zzzzzzzz"}, {"000017.seg", "../17.seg"},
		{"seg 000002.seg sealed 0 0\n", ""}, {"678", "99999999999999999999"}, {manifestHeader, "dievent-manifest v2"},
	} {
		f.Add(resealManifest(bytes.Replace(good, []byte(edit[0]), []byte(edit[1]), 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseManifest(t, data)
		checkParseManifest(t, resealManifest(data))
	})
}

func TestParseManifestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var accepted int
	const inputs = 5000
	for i := 0; i < inputs; i++ {
		segs := make([]segMeta, rng.Intn(6)+1)
		for j := range segs {
			segs[j] = segMeta{name: segFileName(uint64(j*3 + 1)), bytes: rng.Int63n(1 << 30), count: rng.Intn(1 << 20), sealed: j < len(segs)-1}
			if segs[j].sealed && rng.Intn(2) == 0 {
				segs[j].hasStats, segs[j].statsCRC = true, rng.Uint32()
			}
		}
		data := mutate(rng, encodeManifest(segs))
		if rng.Intn(2) == 0 {
			data = resealManifest(data)
		}
		if checkParseManifest(t, data) {
			accepted++
		}
	}
	if accepted < inputs/10 || accepted > inputs*9/10 {
		t.Fatalf("vacuous run: %d of %d mutated manifests accepted", accepted, inputs)
	}
}

// resealStats recomputes a statistics block's trailing CRC.
func resealStats(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// checkDecodeStats: ErrCorrupt, or a block that re-encodes to the very
// bytes it was decoded from.
func checkDecodeStats(t testing.TB, data []byte) bool {
	t.Helper()
	st, err := decodeStats(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decodeStats(%x) failed outside ErrCorrupt: %v", data, err)
		}
		return false
	}
	if enc := encodeStats(st); !bytes.Equal(enc, data) {
		t.Fatalf("decodeStats accepted %x, which re-encodes to %x", data, enc)
	}
	return true
}

func FuzzDecodeStats(f *testing.F) {
	good := encodeStats(statsOfRecords(fuzzSegmentRecords))
	f.Add(good)
	f.Add(encodeStats(statsOfRecords(nil)))
	f.Add([]byte(nil))
	f.Add([]byte(statsMagic))
	for cut := len(statsMagic); cut < len(good); cut += 7 {
		f.Add(resealStats(good[:cut]))
	}
	for _, at := range []int{len(statsMagic) + 4 + int(numKinds)*4 + 32} { // the label bloom's length
		for _, n := range []uint32{0, 1, 1 << 20, math.MaxUint32} {
			lying := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(lying[at:], n)
			f.Add(resealStats(lying))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeStats(t, data)
		checkDecodeStats(t, resealStats(data))
	})
}

func TestDecodeStatsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var accepted int
	const inputs = 5000
	for i := 0; i < inputs; i++ {
		var recs []Record
		for n := rng.Intn(30); n > 0; n-- {
			recs = append(recs, randomRecord(rng, uint64(len(recs)+1)))
		}
		data := mutate(rng, encodeStats(statsOfRecords(recs)))
		if rng.Intn(2) == 0 {
			data = resealStats(data)
		}
		if checkDecodeStats(t, data) {
			accepted++
		}
	}
	if accepted < inputs/10 || accepted > inputs*9/10 {
		t.Fatalf("vacuous run: %d of %d mutated statistics blocks accepted", accepted, inputs)
	}
}

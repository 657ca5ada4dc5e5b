package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/metadata"
)

// The record wire codec (DESIGN.md §11 "Wire codec"). WireRecord and
// Envelope document the format and stay its reference: the encoder
// below emits, for every record, exactly the bytes of
// json.Marshal(ToWire(rec)), and the decoder either returns exactly
// what encoding/json + FromWire return or declines, in which case that
// very call sequence decodes the input (and words its errors). Neither
// half reflects, and neither builds a WireRecord.

// EncodeBatch appends the JSON array of recs' wire objects to dst: the
// body of an append request.
func EncodeBatch(dst []byte, recs []metadata.Record) ([]byte, error) {
	dst = append(dst, '[')
	for i := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendRecord(dst, &recs[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendRecordLine appends one NDJSON stream line carrying rec:
// {"record":…} and a newline, as json.Encoder writes the Envelope.
func appendRecordLine(dst []byte, rec *metadata.Record) ([]byte, error) {
	dst = append(dst, `{"record":`...)
	dst, err := appendRecord(dst, rec)
	return append(dst, '}', '\n'), err
}

// appendRecord appends rec's wire object. A non-finite Value is the one
// thing JSON cannot carry; it fails with encoding/json's own error. On
// error dst holds a partial object the caller must discard.
func appendRecord(dst []byte, rec *metadata.Record) ([]byte, error) {
	dst = append(dst, '{')
	if rec.ID != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendUint(dst, rec.ID, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"kind":`...)
	dst = appendString(dst, rec.Kind.String())
	dst = appendAxis(dst, `,"frame":`, rec.Frame)
	dst = appendAxis(dst, `,"frame_end":`, rec.FrameEnd)
	if us := rec.Time.Microseconds(); us != 0 {
		dst = append(dst, `,"time_us":`...)
		dst = strconv.AppendInt(dst, us, 10)
	}
	dst = appendAxis(dst, `,"person":`, rec.Person)
	dst = appendAxis(dst, `,"other":`, rec.Other)
	dst = append(dst, `,"label":`...)
	dst = appendString(dst, rec.Label)
	if rec.Value != 0 { // omitempty drops -0 too; NaN is not 0
		if math.IsNaN(rec.Value) || math.IsInf(rec.Value, 0) {
			return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(rec.Value, 'g', -1, 64)}
		}
		dst = append(dst, `,"value":`...)
		dst = appendFloat(dst, rec.Value)
	}
	if len(rec.Tags) > 0 {
		dst = append(dst, `,"tags":{`...)
		var stack [8]string
		keys := stack[:0]
		for k := range rec.Tags {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = appendString(dst, rec.Tags[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendAxis appends a frame-axis or participant member, which the wire
// omits when the repository holds its "absent" value (negative).
func appendAxis(dst []byte, member string, v int) []byte {
	if v < 0 {
		return dst
	}
	dst = append(dst, member...)
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendFloat formats a finite float64 as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, with a
// two-digit exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as json.Marshal does (HTML escaping on):
// control bytes, the quote, the backslash, <, > and & are escaped,
// invalid UTF-8 becomes \ufffd, and U+2028/U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Decoder decodes wire records. Its fast path accepts the grammar the
// encoder emits — members in any order, each at most once, plain
// string literals (no escapes, valid UTF-8), JSON integers and numbers
// in range, insignificant whitespace — and declines everything else:
// escapes, unknown or case-folded members, nulls, duplicates,
// out-of-range numbers, syntax errors, trailing data. A declined input
// is decoded by encoding/json into WireRecord/Envelope and FromWire, so
// the fast path can only ever skip work, never change a result.
//
// Decoded strings are copies, never views of the input, so the caller
// may reuse its buffer. Short strings go through a small table of
// recently seen values: the few labels, tag keys and tag values a
// stream repeats are allocated once and shared by the records that
// carry them. The zero Decoder is ready; it is not safe for concurrent
// use.
type Decoder struct {
	intern [internSlots]string
}

const (
	internSlots  = 64
	internMaxLen = 32
)

// str copies seg into a string, sharing the copy with an earlier equal
// seg when the table still holds it. The table is direct-mapped by
// FNV-1a — fixed, so a run's allocations repeat exactly; two values
// that share a slot merely evict each other.
func (d *Decoder) str(seg []byte) string {
	if len(seg) == 0 {
		return ""
	}
	if len(seg) > internMaxLen {
		return string(seg)
	}
	h := uint32(2166136261)
	for _, c := range seg {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.intern[h%internSlots]
	if *slot != string(seg) {
		*slot = string(seg)
	}
	return *slot
}

// batch decodes an append body into into[:0] (grown as needed), as
// json.Decoder.Decode(&[]WireRecord) followed by FromWire per element
// would: IDs are dropped, absent axes become -1, a frame without a
// frame_end is the instant [frame, frame+1).
func (d *Decoder) batch(body []byte, into []metadata.Record) ([]metadata.Record, error) {
	if recs, ok := d.batchFast(body, into); ok {
		return recs, nil
	}
	var wires []WireRecord
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wires); err != nil {
		return nil, fmt.Errorf("service: decoding records: %v", err)
	}
	recs := into[:0]
	for i, wr := range wires {
		rec, err := FromWire(wr)
		if err != nil {
			return nil, fmt.Errorf("service: record %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (d *Decoder) batchFast(body []byte, into []metadata.Record) ([]metadata.Record, bool) {
	recs := into[:0]
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '[' {
		return nil, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == ']' {
		return recs, skipSpace(body, i+1) == len(body)
	}
	for {
		recs = append(recs, metadata.Record{})
		rec := &recs[len(recs)-1] // decoded in place: a Record is 13 words
		var ok bool
		if i, ok = d.object(body, i, rec); !ok {
			return nil, false
		}
		rec.ID = 0 // the repository assigns it
		i = skipSpace(body, i)
		if i >= len(body) {
			return nil, false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case ']':
			return recs, skipSpace(body, i+1) == len(body)
		default:
			return nil, false
		}
	}
}

// Line decodes one NDJSON line of a query or follow response. A record
// line returns the record (ID kept) and a nil envelope; any other line
// — a terminal error, the EOF marker — returns its envelope.
func (d *Decoder) Line(line []byte) (metadata.Record, *Envelope, error) {
	var rec metadata.Record
	if d.lineFast(line, &rec) {
		return rec, nil, nil
	}
	env := new(Envelope)
	if err := json.Unmarshal(line, env); err != nil {
		return metadata.Record{}, nil, err
	}
	if env.Record == nil {
		return metadata.Record{}, env, nil
	}
	rec, err := fromWireKeepID(*env.Record)
	return rec, nil, err
}

func fromWireKeepID(w WireRecord) (metadata.Record, error) {
	rec, err := FromWire(w)
	rec.ID = w.ID
	return rec, err
}

// lineFast accepts exactly {"record":<object>}.
func (d *Decoder) lineFast(b []byte, rec *metadata.Record) bool {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	key, i, ok := plainString(b, skipSpace(b, i+1))
	if !ok || string(key) != "record" {
		return false
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return false
	}
	if i, ok = d.object(b, skipSpace(b, i+1), rec); !ok {
		return false
	}
	i = skipSpace(b, i)
	return i < len(b) && b[i] == '}' && skipSpace(b, i+1) == len(b)
}

// Members of the wire object, as bits of the seen-set that refuses
// duplicates.
const (
	mID = 1 << iota
	mKind
	mFrame
	mFrameEnd
	mTimeUS
	mPerson
	mOther
	mLabel
	mValue
	mTags
)

// object decodes the wire object opening at b[i] into rec, FromWire's
// defaults applied, and returns the index past its closing brace.
func (d *Decoder) object(b []byte, i int, rec *metadata.Record) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	*rec = metadata.Record{Frame: -1, FrameEnd: -1, Person: -1, Other: -1}
	seen := 0
	i = skipSpace(b, i+1)
	for {
		key, next, ok := plainString(b, i)
		if !ok {
			return 0, false
		}
		i = skipSpace(b, next)
		if i >= len(b) || b[i] != ':' {
			return 0, false
		}
		i = skipSpace(b, i+1)

		var m int
		switch string(key) {
		case "id":
			m = mID
			rec.ID, i, ok = digits(b, i)
		case "kind":
			m = mKind
			rec.Kind, i, ok = kind(b, i)
		case "frame":
			m = mFrame
			rec.Frame, i, ok = integer[int](b, i)
		case "frame_end":
			m = mFrameEnd
			rec.FrameEnd, i, ok = integer[int](b, i)
		case "time_us":
			m = mTimeUS
			var us int64
			us, i, ok = integer[int64](b, i)
			rec.Time = time.Duration(us) * time.Microsecond
		case "person":
			m = mPerson
			rec.Person, i, ok = integer[int](b, i)
		case "other":
			m = mOther
			rec.Other, i, ok = integer[int](b, i)
		case "label":
			m = mLabel
			var seg []byte
			seg, i, ok = plainString(b, i)
			rec.Label = d.str(seg)
		case "value":
			m = mValue
			rec.Value, i, ok = number(b, i)
		case "tags":
			m = mTags
			rec.Tags, i, ok = d.tags(b, i)
		default:
			return 0, false
		}
		if !ok || seen&m != 0 {
			return 0, false
		}
		seen |= m

		i = skipSpace(b, i)
		if i >= len(b) {
			return 0, false
		}
		if b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if b[i] != '}' || seen&mKind == 0 {
			return 0, false
		}
		if seen&mFrame != 0 && seen&mFrameEnd == 0 {
			rec.FrameEnd = rec.Frame + 1
		}
		return i + 1, true
	}
}

// wireKinds are the kinds the fast path knows. Any other name declines,
// so that ParseKind rules on it and FromWire words the refusal.
var wireKinds = [...]metadata.Kind{metadata.KindContext, metadata.KindObservation, metadata.KindEvent, metadata.KindAnnotation}

func kind(b []byte, i int) (metadata.Kind, int, bool) {
	seg, next, ok := plainString(b, i)
	if !ok {
		return 0, 0, false
	}
	for _, k := range wireKinds {
		if string(seg) == k.String() {
			return k, next, true
		}
	}
	return 0, 0, false
}

// tags decodes an object of plain string members; as in encoding/json
// a repeated key keeps its last value and {} is an empty, non-nil map.
func (d *Decoder) tags(b []byte, i int) (map[string]string, int, bool) {
	if i >= len(b) || b[i] != '{' {
		return nil, 0, false
	}
	m := make(map[string]string)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return m, i + 1, true
	}
	for {
		key, next, ok := plainString(b, i)
		if !ok {
			return nil, 0, false
		}
		i = skipSpace(b, next)
		if i >= len(b) || b[i] != ':' {
			return nil, 0, false
		}
		val, next, ok := plainString(b, skipSpace(b, i+1))
		if !ok {
			return nil, 0, false
		}
		m[d.str(key)] = d.str(val)
		i = skipSpace(b, next)
		if i >= len(b) {
			return nil, 0, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return m, i + 1, true
		default:
			return nil, 0, false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString scans the string literal opening at b[i] and returns its
// contents and the index past the closing quote. Only a literal whose
// bytes are its value is accepted: no escape, no control byte, valid
// UTF-8 (encoding/json would replace the rest with U+FFFD).
func plainString(b []byte, i int) (seg []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	ascii := true
	for i = start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			seg = b[start:i]
			return seg, i + 1, ascii || utf8.Valid(seg)
		case c == '\\' || c < ' ':
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// digits scans 0|[1-9][0-9]* at b[i]; a value past uint64 declines. A
// fraction or exponent is left for the caller to trip over: no member
// delimiter follows.
func digits(b []byte, i int) (u uint64, next int, ok bool) {
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		c := uint64(b[i] - '0')
		if u > (math.MaxUint64-c)/10 {
			return 0, 0, false
		}
		u = u*10 + c
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, 0, false
	}
	return u, i, true
}

// integer scans -?(0|[1-9][0-9]*) at b[i] into T, declining a value T
// cannot hold.
func integer[T int | int64](b []byte, i int) (T, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	u, next, ok := digits(b, i)
	if !ok || u > 1<<63 || (u == 1<<63 && !neg) {
		return 0, 0, false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if int64(T(v)) != v {
		return 0, 0, false
	}
	return T(v), next, true
}

var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// number scans a JSON number at b[i]. Up to 15 digits without an
// exponent are converted exactly (an integer below 2^53 over a power of
// ten is one correctly rounded division, which is strconv's own short
// path, here without its general scan: 58 ns a record, a fifth of a
// decode, in BenchmarkCodec); anything longer goes to
// strconv.ParseFloat, whose range error declines.
func number(b []byte, i int) (float64, int, bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	nd, frac := 0, 0
	intStart := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if nd < len(pow10) {
			mant = mant*10 + uint64(b[i]-'0')
		}
		nd++
	}
	if i == intStart || (b[intStart] == '0' && i-intStart > 1) {
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < len(pow10) {
				mant = mant*10 + uint64(b[i]-'0')
			}
			nd++
			frac++
		}
		if frac == 0 {
			return 0, 0, false
		}
	}
	exact := nd < len(pow10)
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exact = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		expStart := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == expStart {
			return 0, 0, false
		}
	}
	if exact {
		f := float64(mant) / pow10[frac]
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metadata"
)

// The oracles: the reflection call sequences the handler, the client
// and the spill used before the codec existed, spelled out here so the
// reference is not the code under test.

func refRecord(rec metadata.Record) ([]byte, error) { return json.Marshal(ToWire(rec)) }

func refBatchBody(recs []metadata.Record) ([]byte, error) {
	wires := make([]WireRecord, len(recs))
	for i, rec := range recs {
		wires[i] = ToWire(rec)
	}
	return json.Marshal(wires)
}

func refLineBytes(rec metadata.Record) ([]byte, error) {
	var buf bytes.Buffer
	wr := ToWire(rec)
	err := json.NewEncoder(&buf).Encode(Envelope{Record: &wr})
	return buf.Bytes(), err
}

func refBatch(body []byte) ([]metadata.Record, error) {
	var wires []WireRecord
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wires); err != nil {
		return nil, fmt.Errorf("service: decoding records: %v", err)
	}
	recs := []metadata.Record{}
	for i, wr := range wires {
		rec, err := FromWire(wr)
		if err != nil {
			return nil, fmt.Errorf("service: record %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// refLine is client.Query's old loop body: the record (ID kept) when
// the envelope carries one, else the envelope.
func refLine(line []byte) (metadata.Record, *Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return metadata.Record{}, nil, err
	}
	if env.Record == nil {
		return metadata.Record{}, &env, nil
	}
	rec, err := FromWire(*env.Record)
	rec.ID = env.Record.ID
	return rec, nil, err
}

// --- generators ---

// awkward strings: everything appendString special-cases, and what the
// decoder must decline.
var genStrings = []string{
	"", "x", "happy", "eye-contact", "shot boundary", "a/b:c;d=e~{}[]",
	"<b>&amp;</b>", `say "hi"`, `back\slash`, "tab\there", "line\nbreak", "\r\b\f", "\x00\x01\x1f", "\x7f",
	"caf\u00e9", "\u65e5\u672c\u8a9e", "\U0001F37D", "sep\u2028ara\u2029tor", "\ufffd",
	"bad\xffutf8", "\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80", "trail\xe2\x80",
	strings.Repeat("p", 40), strings.Repeat("\u00fc", 20),
}

var genFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.001, 0.999, 42, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 9.999999999999999e20,
	1e22, 1e23, 123456789012345678, 0.1 + 0.2, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-10,
	1 << 53, 1<<53 + 2, 5e-324, 1e100, 1e-100, math.Pi, -math.E, math.NaN(), math.Inf(1), math.Inf(-1),
}

var genInts = []int{0, 1, -1, 7, 250, 100000, -5, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, 1 << 53}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// genRecord draws a record from the whole field space, valid or not:
// the encoder must match encoding/json on all of it.
func genRecord(r *rand.Rand) metadata.Record {
	rec := metadata.Record{
		ID:       uint64(pick(r, genInts)),
		Kind:     metadata.Kind(r.IntN(6)), // two past the last kind
		Frame:    pick(r, genInts),
		FrameEnd: pick(r, genInts),
		Time:     time.Duration(pick(r, genInts)),
		Person:   pick(r, genInts),
		Other:    pick(r, genInts),
		Label:    pick(r, genStrings),
		Value:    pick(r, genFloats),
	}
	if r.IntN(4) == 0 {
		rec.Value = math.Float64frombits(r.Uint64())
	}
	if r.IntN(4) == 0 {
		rec.Value = float64(r.IntN(1000)) / 1000
	}
	switch n := r.IntN(6); {
	case n == 4:
		rec.Tags = map[string]string{}
	case n < 4 && n > 0:
		rec.Tags = make(map[string]string)
		for i := 0; i < n*n; i++ { // 1, 4 or 9: past the encoder's stack array too
			rec.Tags[pick(r, genStrings)] = pick(r, genStrings)
		}
	}
	return rec
}

// plainRecord draws what every benchmark load and every pipeline stage
// produces: valid records whose strings are printable ASCII.
func plainRecord(r *rand.Rand) metadata.Record {
	rec := metadata.Record{
		Kind:     metadata.Kind(r.IntN(4)),
		Frame:    r.IntN(1 << 20),
		Time:     time.Duration(r.IntN(1<<30)) * time.Microsecond,
		Person:   r.IntN(9) - 1,
		Other:    r.IntN(9) - 1,
		Label:    pick(r, []string{"happy", "sad", "eye-contact", "bench-marker", "scene 12", "a/b:c;d=e~{}[]"}),
		Value:    pick(r, []float64{0, 1, 0.5, 0.123, 999, 1e-7, 1e21, -3.75, 1.0 / 3}),
		FrameEnd: -1,
	}
	rec.FrameEnd = rec.Frame + 1 + r.IntN(3)
	if rec.Kind == metadata.KindContext && r.IntN(2) == 0 {
		rec.Frame, rec.FrameEnd = -1, -1
	}
	if r.IntN(3) == 0 {
		rec.Tags = map[string]string{"camera": "C" + strconv.Itoa(r.IntN(4)), "pad": strings.Repeat("p", r.IntN(50))}
	}
	return rec
}

// Pools of member texts for generated bodies, each as {sound, odd}:
// what the encoder and other JSON writers emit for a value, and what is
// out of range, of the wrong type or not JSON at all.
var (
	genIntTexts = [2][]string{{
		"0", "-0", "7", "3", "250", "100000", "2147483647", "2147483648", "9223372036854775807", "-3", "-2147483649", "-9223372036854775808",
	}, {
		"01", "-01", "1e2", "1E2", "1.0", "1.5", "+1", "-", "",
		"9223372036854775808", "-9223372036854775809", "18446744073709551615", "18446744073709551616", "123456789012345678901",
		"null", `"5"`, "true", "[1]", "{}", "0x10", "1_000",
	}}
	genFloatTexts = [2][]string{{
		"0", "-0", "0.5", "-0.25", "0.123", "1", "42", "1e-7", "1E-7", "1e-07", "1e+21", "1E21", "1e21", "1e2", "1.5e3",
		"0.000001", "0.0000001", "123456789012345", "1234567890123456", "0.1234567890123456", "12345678.90123456",
		"123456789012345678", "0.30000000000000004", "1.7976931348623157e308", "1e308", "4.9e-324", "5e-324", "2.4e-324",
		"1e-400", "0.000000000000000000000001",
	}, {
		"1.7976931348623159e308", "1e309", "-1e309", "1e400",
		"1.", ".5", "1.e2", "1e", "1e+", "01.5", "-", "+0.5", "0x1p-2", "NaN", "Infinity", "-Infinity",
		"null", `"1"`, "false", "[]",
	}}
	genStringTexts = [2][]string{{
		`""`, `"x"`, `"happy"`, `"eye-contact"`, `"two words"`, `"a/b:c;d=e~{}[]"`, `"<b>&</b>"`, `"happy"`, `"sad"`,
		`"say \"hi\""`, `"back\\slash"`, `"tab\there"`, `"\u0041"`, `"\u00e9"`, `"\ud83c\udf7d"`, `"\ud800"`, `"\u2028"`, `"\/"`,
		"\"caf\u00e9\"", "\"\u65e5\u672c\"", "\"sep\u2028\"", "\"bad\xffutf8\"", "\"\xed\xa0\x80\"",
		`"` + strings.Repeat("L", 40) + `"`,
	}, {
		`"\x"`, `"\u12"`, "\"ctl\x01\"", "\"nl\n\"", "\"tab\t\"",
		`"unterminated`, `'single'`, "null", "5", "true", `["x"]`, `{"a":"b"}`,
	}}
	genKindTexts = [2][]string{{
		`"context"`, `"observation"`, `"event"`, `"annotation"`, `"ev\u0065nt"`,
	}, {
		`"Observation"`, `"nope"`, `""`, `"event "`, "null", "2",
	}}
	genTagTexts = [2][]string{{
		`{}`, `{"camera":"C2"}`, `{"a":"b","c":"d"}`, `{"a":"b","a":"c"}`, `{ "a" : "b" , "c" : "d" }`,
		"{\"caf\u00e9\":\"\u00fc\"}", `{"":"empty key"}`, `{"esc":"a\nb"}`, `{"k\u0041":"v"}`, "{\"bad\":\"\xff\"}", "null",
	}, {
		`{"a":1}`, `{"a":null}`, `{"a":"b",}`, `{"a"}`, `{"a":"b"`, `{a:"b"}`, "[]", `"x"`, `{"a":{"b":"c"}}`,
	}}
	genSpaces   = [2][]string{{"", "", "", " ", "\n", "\t", "\r\n", "  "}, {"\v", "\u00a0"}}
	genMembers  = []string{"id", "kind", "frame", "frame_end", "time_us", "person", "other", "label", "value", "tags"}
	genOddNames = []string{"Kind", "LABEL", "Frame", "frame_End", "iD", "extra", "record", "", "kind ", "k\u0131nd", "TAGS", "la\\u0062el"}
)

// mostly draws a sound text, and an odd one once in 64 draws: an object
// has a dozen draws and a body several objects, and one odd text is
// enough to refuse the body.
func mostly(r *rand.Rand, pool [2][]string) string {
	if r.IntN(64) == 0 {
		return pick(r, pool[1])
	}
	return pick(r, pool[0])
}

func memberText(r *rand.Rand, name string) string {
	switch name {
	case "kind":
		return mostly(r, genKindTexts)
	case "label":
		return mostly(r, genStringTexts)
	case "value":
		if r.IntN(3) == 0 {
			f := math.Float64frombits(r.Uint64())
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				return strconv.FormatFloat(f, pick(r, []byte{'g', 'e', 'f'}), -1, 64)
			}
		}
		return mostly(r, genFloatTexts)
	case "tags":
		return mostly(r, genTagTexts)
	}
	if r.IntN(3) == 0 {
		return strconv.FormatInt(int64(r.Uint64()>>uint(r.IntN(64))), 10)
	}
	return mostly(r, genIntTexts)
}

// genObject writes one wire object as some JSON writer might — or
// might get wrong.
func genObject(r *rand.Rand, sb *strings.Builder) {
	sp := func() { sb.WriteString(mostly(r, genSpaces)) }
	names := []string{"kind", "label"}
	for _, n := range genMembers {
		if n != "kind" && n != "label" && r.IntN(2) == 0 {
			names = append(names, n)
		}
	}
	switch r.IntN(12) {
	case 0:
		names = names[1:] // no kind
	case 1:
		names = append(names, pick(r, genOddNames))
	case 2:
		names = append(names, pick(r, names)) // duplicate
	}
	if r.IntN(2) == 0 {
		r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	}
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sp()
		sb.WriteString(`"` + n + `"`)
		sp()
		sb.WriteByte(':')
		sp()
		canon := n
		for _, m := range genMembers {
			if strings.EqualFold(m, n) {
				canon = m
			}
		}
		sb.WriteString(memberText(r, canon))
		sp()
	}
	sb.WriteByte('}')
}

// genBody writes an append body: mostly arrays of generated objects or
// real encoder output, sometimes structurally broken.
func genBody(r *rand.Rand) []byte {
	var sb strings.Builder
	sp := func() { sb.WriteString(mostly(r, genSpaces)) }
	if r.IntN(40) == 0 {
		sb.WriteString("\ufeff")
	}
	sp()
	switch r.IntN(30) {
	case 0:
		return []byte(pick(r, []string{"", "null", "{}", "[null]", "[{}]", "[[]]", "[1]", `"x"`, "[", "]", "[,]", "[]]", " [ ] ", "[]x"}))
	case 1, 2, 3, 4, 5: // what client.Append sends
		recs := make([]metadata.Record, r.IntN(4))
		for i := range recs {
			if r.IntN(3) == 0 {
				recs[i] = genRecord(r)
			} else {
				recs[i] = plainRecord(r)
			}
		}
		if body, err := EncodeBatch(nil, recs); err == nil {
			return body
		}
	}
	sb.WriteByte('[')
	n := r.IntN(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sp()
		if r.IntN(3) == 0 {
			body, err := appendRecord(nil, ptr(plainRecord(r)))
			if err != nil {
				panic(err)
			}
			sb.Write(body)
		} else {
			genObject(r, &sb)
		}
		sp()
	}
	if r.IntN(50) == 0 {
		sb.WriteByte(',')
	}
	if r.IntN(50) != 0 {
		sb.WriteByte(']')
	}
	sp()
	if r.IntN(30) == 0 {
		sb.WriteString(pick(r, []string{"x", "[]", "{}", ",", "]", "\x00", "null"}))
	}
	body := []byte(sb.String())
	switch r.IntN(40) {
	case 0: // truncated
		body = body[:r.IntN(len(body)+1)]
	case 1: // one byte flipped
		if len(body) > 0 {
			body[r.IntN(len(body))] = byte(r.IntN(256))
		}
	}
	return body
}

// genLine writes one stream line: record envelopes (real or generated)
// and the terminal shapes.
func genLine(r *rand.Rand) []byte {
	switch r.IntN(10) {
	case 0:
		return []byte(pick(r, []string{
			`{"eof":true}`, `{"error":"boom","code":"internal"}`, `{"error":"service: server draining","code":"draining"}`,
			`{}`, ``, `null`, `{"record":null}`, `{"record":{}}`, `{"record":{"kind":"event","label":"x"},"eof":true}`,
			`{"eof":true,"record":{"kind":"event","label":"x"}}`, `{"Record":{"kind":"event","label":"x"}}`,
			`{"record":{"kind":"event","label":"x"}}}`, `{"record":{"kind":"event","label":"x"}} x`, `{"record":[]}`, `[]`,
		}))
	case 1, 2, 3:
		if line, err := appendRecordLine(nil, ptr(genRecord(r))); err == nil {
			return line
		}
	case 4, 5:
		line, err := appendRecordLine(nil, ptr(plainRecord(r)))
		if err != nil {
			panic(err)
		}
		return line
	}
	var sb strings.Builder
	sb.WriteString(mostly(r, genSpaces) + "{" + mostly(r, genSpaces) + `"record"` + mostly(r, genSpaces) + ":" + mostly(r, genSpaces))
	genObject(r, &sb)
	sb.WriteString(mostly(r, genSpaces) + "}" + mostly(r, genSpaces))
	return []byte(sb.String())
}

func ptr[T any](v T) *T { return &v }

// --- encoder: byte identity ---

func checkEncode(t testing.TB, rec metadata.Record) {
	t.Helper()
	want, werr := refRecord(rec)
	got, gerr := appendRecord(nil, &rec)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("record %+v: encoding/json err %v, codec err %v", rec, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("record %+v: encoding/json says %q, codec says %q", rec, werr, gerr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("record %+v:\n codec %s\n  json %s", rec, got, want)
	}
	wantLine, _ := refLineBytes(rec)
	gotLine, err := appendRecordLine(nil, &rec)
	if err != nil || !bytes.Equal(gotLine, wantLine) {
		t.Fatalf("record %+v (err %v):\n codec line %s\n  json line %s", rec, err, gotLine, wantLine)
	}
}

// TestEncodeMatchesJSON: over generated records of every shape, the
// encoder's bytes are encoding/json's, or both refuse (non-finite
// Value) in the same words; same for whole batches.
func TestEncodeMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 1))
	failed := 0
	for i := 0; i < 30000; i++ {
		rec := genRecord(r)
		checkEncode(t, rec)
		if _, err := refRecord(rec); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no generated record was unencodable; the error half went untested")
	}
	for _, f := range genFloats { // every boundary value, on an otherwise plain record
		checkEncode(t, metadata.Record{Kind: metadata.KindEvent, Frame: 1, FrameEnd: 2, Person: -1, Other: -1, Label: "v", Value: f})
	}
	for _, s := range genStrings {
		checkEncode(t, metadata.Record{Kind: metadata.KindEvent, Frame: -1, FrameEnd: -1, Person: -1, Other: -1, Label: s, Tags: map[string]string{s: s}})
	}
	for i := 0; i < 2000; i++ {
		recs := make([]metadata.Record, r.IntN(5))
		for j := range recs {
			recs[j] = genRecord(r)
		}
		want, werr := refBatchBody(recs)
		got, gerr := EncodeBatch(nil, recs)
		if (werr != nil) != (gerr != nil) || (werr == nil && !bytes.Equal(got, want)) {
			t.Fatalf("batch %d: err %v / %v\n codec %s\n  json %s", i, gerr, werr, got, want)
		}
	}
}

// --- decoder: never wrong ---

// checkBatch holds the codec to the reference on one body and reports
// whether the fast path took it.
func checkBatch(t testing.TB, d *Decoder, body []byte) (fast bool) {
	t.Helper()
	want, werr := refBatch(body)
	got, gerr := d.batch(body, nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("body %q: reference err %v, codec err %v", body, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("body %q: reference says %q, codec says %q", body, werr, gerr)
		}
	} else if !sameRecords(got, want) {
		t.Fatalf("body %q:\n codec %#v\n  json %#v", body, got, want)
	}
	fastRecs, fast := d.batchFast(body, nil)
	if fast {
		if werr != nil {
			t.Fatalf("body %q: fast path accepted what the reference refuses (%v)", body, werr)
		}
		// Allocation bounded by the body: a record costs at least its
		// kind member, strings only what the body spelled out.
		strBytes := 0
		for _, rec := range fastRecs {
			strBytes += len(rec.Label)
			for k, v := range rec.Tags {
				strBytes += len(k) + len(v)
			}
		}
		if len(fastRecs)*len(`{"kind":"event"}`) > len(body) || strBytes > len(body) {
			t.Fatalf("body of %d bytes decoded to %d records, %d string bytes", len(body), len(fastRecs), strBytes)
		}
	}
	return fast
}

// sameRecords is DeepEqual (nil and empty Tags differ) that also tells
// -0 from 0, and takes a nil slice for an empty one.
func sameRecords(a, b []metadata.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) || math.Signbit(a[i].Value) != math.Signbit(b[i].Value) {
			return false
		}
	}
	return true
}

func checkLine(t testing.TB, d *Decoder, line []byte) (fast bool) {
	t.Helper()
	wantRec, wantEnv, werr := refLine(line)
	gotRec, gotEnv, gerr := d.Line(line)
	if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("line %q: reference err %v, codec err %v", line, werr, gerr)
	}
	if !sameRecords([]metadata.Record{gotRec}, []metadata.Record{wantRec}) || !reflect.DeepEqual(gotEnv, wantEnv) {
		t.Fatalf("line %q:\n codec %#v %#v\n  json %#v %#v", line, gotRec, gotEnv, wantRec, wantEnv)
	}
	var rec metadata.Record
	return d.lineFast(line, &rec)
}

// TestDecodeMatchesJSON is the never-wrong-skip gate for the decoder:
// over 20 000+ generated bodies and as many stream lines — encoder
// output, other writers' spellings, escapes, unknown, duplicate and
// case-folded members, nulls, out-of-range numbers, broken syntax — the
// codec returns exactly what encoding/json + FromWire return, or both
// fail with the same message (so the same 400). Non-vacuity: both the
// fast path and the decline path must have been exercised.
func TestDecodeMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 2))
	var d Decoder // one decoder throughout: its string table must never leak between inputs
	var fast, declinedOK, refused int
	for i := 0; i < 24000; i++ {
		body := genBody(r)
		took := checkBatch(t, &d, body)
		_, err := refBatch(body)
		switch {
		case took:
			fast++
		case err == nil:
			declinedOK++
		default:
			refused++
		}
	}
	t.Logf("bodies: %d fast path, %d declined and decoded by encoding/json, %d refused", fast, declinedOK, refused)
	if fast < 2000 || declinedOK < 2000 || refused < 2000 {
		t.Fatalf("generated bodies do not cover all three outcomes: fast %d, declined %d, refused %d", fast, declinedOK, refused)
	}
	fast, declinedOK = 0, 0
	for i := 0; i < 24000; i++ {
		if checkLine(t, &d, genLine(r)) {
			fast++
		} else {
			declinedOK++
		}
	}
	t.Logf("lines: %d fast path, %d declined", fast, declinedOK)
	if fast < 2000 || declinedOK < 2000 {
		t.Fatalf("generated lines do not cover both outcomes: fast %d, declined %d", fast, declinedOK)
	}
}

// TestFastPathTakesPlainASCII is the other half of non-vacuity (cf.
// TestScoreCascadeSkipContract): whatever the encoder produces for
// records whose strings are printable ASCII without ", \, <, > or & —
// every pipeline stage's and every benchmark load's records — must be
// decoded by the fast path, all of it, batch, line and spill frame.
func TestFastPathTakesPlainASCII(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 3))
	var d Decoder
	for i := 0; i < 5000; i++ {
		recs := make([]metadata.Record, 1+r.IntN(8))
		for j := range recs {
			recs[j] = plainRecord(r)
			recs[j].ID = uint64(r.IntN(1 << 30))
		}
		body, err := EncodeBatch(nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := d.batchFast(body, nil)
		if !ok {
			t.Fatalf("fast path declined encoder output %s", body)
		}
		for j := range recs {
			want := recs[j]
			want.ID = 0
			if !reflect.DeepEqual(got[j], want) {
				t.Fatalf("record %d of %s:\n got %#v\nwant %#v", j, body, got[j], want)
			}
		}
		line, err := appendRecordLine(nil, &recs[0])
		if err != nil {
			t.Fatal(err)
		}
		var rec metadata.Record
		if !d.lineFast(line, &rec) || !reflect.DeepEqual(rec, recs[0]) {
			t.Fatalf("fast path declined or changed line %s: %#v", line, rec)
		}
	}
}

// TestDecoderInternsWithoutAliasing: repeated short strings share one
// allocation, and nothing decoded points into the (reusable) input.
func TestDecoderInternsWithoutAliasing(t *testing.T) {
	body := []byte(`[{"kind":"event","label":"happy","tags":{"camera":"C1"}},{"kind":"event","label":"happy","tags":{"camera":"C1"}}]`)
	var d Decoder
	recs, ok := d.batchFast(body, nil)
	if !ok || len(recs) != 2 {
		t.Fatalf("fast path declined: %v %d", ok, len(recs))
	}
	for i := range body {
		body[i] = 'X'
	}
	want := metadata.Record{Kind: metadata.KindEvent, Frame: -1, FrameEnd: -1, Person: -1, Other: -1, Label: "happy", Tags: map[string]string{"camera": "C1"}}
	if !reflect.DeepEqual(recs[0], want) || !reflect.DeepEqual(recs[1], want) {
		t.Fatalf("decoded records changed with the input buffer: %#v", recs)
	}
	body = []byte(`[{"kind":"event","label":"happy"},{"kind":"event","label":"happy"},{"kind":"event","label":"happy"}]`)
	into := make([]metadata.Record, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := d.batchFast(body, into); !ok {
			t.Fatal("declined")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state tagless decode into a reused slice allocates %.0f times, want 0", allocs)
	}
}

// TestDecodeAllocationBounded measures what the fuzzers can only bound
// structurally: decoding never allocates more than a fixed multiple of
// the body, on either path.
func TestDecodeAllocationBounded(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 4))
	var d Decoder
	var before, after runtime.MemStats
	for i := 0; i < 2000; i++ {
		body := genBody(r)
		runtime.ReadMemStats(&before)
		d.batch(body, nil)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d): %q", len(body), got, limit, body)
		}
	}
}

// BenchmarkCodec times the codec beside the reference it replaced, per
// record, on the benchmark workloads' record shape. (The benchmark's
// service.wire_*_ns_per_record probes call encoding/json on WireRecord
// themselves, so they time the reference; this is the codec's own.)
func BenchmarkCodec(b *testing.B) {
	r := rand.New(rand.NewPCG(17, 5))
	recs := make([]metadata.Record, 500)
	for i := range recs {
		recs[i] = metadata.Record{Kind: metadata.KindObservation, Frame: 250000 + i/4, FrameEnd: 250001 + i/4,
			Time: time.Duration(250000+i/4) * 40 * time.Millisecond, Person: i % 4, Other: -1,
			Label: pick(r, []string{"happy", "sad", "angry", "surprised", "neutral", "disgusted", "fearful"}), Value: float64(r.IntN(1000)) / 1000}
	}
	body, err := EncodeBatch(nil, recs)
	if err != nil {
		b.Fatal(err)
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(body))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeBatch(buf, recs); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("encode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refBatchBody(recs); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("decode", func(b *testing.B) {
		var d Decoder
		into := make([]metadata.Record, 0, len(recs))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := d.batchFast(body, into); !ok {
				b.Fatal("declined")
			}
		}
		perRecord(b)
	})
	b.Run("decode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refBatch(body); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
}

// --- fuzzers ---

// FuzzRecordJSON: for arbitrary field values the encoder's output is
// encoding/json's, or both refuse; what it emits decodes, by codec and
// reference alike, to the same record.
func FuzzRecordJSON(f *testing.F) {
	f.Add(uint64(1), uint8(1), 3, 4, int64(120000), 0, -1, "happy", 0.83, "camera", "C2", "", "")
	f.Add(uint64(0), uint8(0), -1, -1, int64(0), -1, -1, "location", 0.0, "value", "meeting room", "k2", "<v>&")
	f.Add(uint64(math.MaxUint64), uint8(9), math.MinInt64, math.MaxInt64, int64(math.MinInt64), -7, 7, "bad\xffutf8\u2028\x01\"\\", math.Copysign(0, -1), "\u00e9", "\xed\xa0\x80", "a", "b")
	f.Add(uint64(2), uint8(2), 0, 0, int64(999), 0, 0, "<>&", 1e-7, "", "", "", "")
	f.Add(uint64(2), uint8(3), 0, 0, int64(-1500), 0, 0, "x", 1e21, "", "", "", "")
	f.Add(uint64(2), uint8(3), 0, 0, int64(1), 0, 0, "x", 9.999999999999999e20, "", "", "", "")
	f.Add(uint64(2), uint8(3), 0, 0, int64(1), 0, 0, "x", 1e-6, "", "", "", "")
	f.Add(uint64(2), uint8(3), 0, 0, int64(1), 0, 0, "x", math.NaN(), "", "", "", "")
	f.Add(uint64(2), uint8(3), 0, 0, int64(1), 0, 0, "x", math.Inf(-1), "", "", "", "")
	f.Fuzz(func(t *testing.T, id uint64, kind uint8, frame, frameEnd int, timeNS int64, person, other int, label string, value float64, k1, v1, k2, v2 string) {
		rec := metadata.Record{ID: id, Kind: metadata.Kind(kind), Frame: frame, FrameEnd: frameEnd, Time: time.Duration(timeNS),
			Person: person, Other: other, Label: label, Value: value}
		if k1 != "" || v1 != "" {
			rec.Tags = map[string]string{k1: v1}
			if k2 != "" || v2 != "" {
				rec.Tags[k2] = v2
			}
		}
		checkEncode(t, rec)
		body, err := EncodeBatch(nil, []metadata.Record{rec})
		if err != nil {
			return
		}
		var d Decoder
		checkBatch(t, &d, body)
		line, _ := appendRecordLine(nil, &rec)
		checkLine(t, &d, line)
	})
}

// fuzzBodies seed both decoder fuzzers (the envelope fuzzer wraps them).
var fuzzBodies = []string{
	`[{"kind":"observation","frame":1,"frame_end":2,"time_us":33000,"person":1,"label":"smile","value":0.9}]`,
	`[{"id":7,"kind":"event","frame":100,"frame_end":160,"person":1,"other":3,"label":"eye-contact","value":1,"tags":{"camera":"C2","zone":"north"}}]`,
	`[{"kind":"context","label":"location","tags":{"value":"meeting room"}},{"kind":"annotation","frame":0,"label":"note","value":-1e+300}]`,
	" [ {\t\"kind\" : \"event\" ,\r\n \"label\" : \"x\" , \"value\" : 1e-7 } ] \n",
	`[{"label":"order","kind":"event","tags":{},"frame":5}]`,
	`[{"kind":"event","label":"esc\u0061pe\n","tags":{"k":"\u2028"}}]`,
	"[{\"kind\":\"event\",\"label\":\"caf\u00e9 \u65e5\u672c\"}]",
	"[{\"kind\":\"event\",\"label\":\"bad\xff\"}]",
	`[{"kind":"event","label":"x","extra":1}]`,
	`[{"kind":"event","label":"x","label":"y"}]`,
	`[{"Kind":"event","LABEL":"x"}]`,
	`[{"kind":"event","label":null,"frame":null,"tags":null,"value":null}]`,
	`[{"kind":"event","label":"x","frame":1e2}]`,
	`[{"kind":"event","label":"x","frame":1.0}]`,
	`[{"kind":"event","label":"x","id":18446744073709551615,"frame":9223372036854775807,"time_us":-9223372036854775808}]`,
	`[{"kind":"event","label":"x","id":18446744073709551616}]`,
	`[{"kind":"event","label":"x","frame":9223372036854775808}]`,
	`[{"kind":"event","label":"x","frame":123456789012345678901}]`,
	`[{"kind":"event","label":"x","value":1e400}]`,
	`[{"kind":"event","label":"x","value":0.1234567890123456789}]`,
	`[{"kind":"event","label":"x","value":-0}]`,
	`[{"kind":"nope","label":"x"}]`,
	`[{"label":"no kind"}]`,
	`[{"kind":"event","label":"x"}] trailing`,
	`[{"kind":"event","label":"x"}]]`,
	`[{"kind":"event","label":"x"},]`,
	`[{"kind":"event","label":"x"}`,
	"\ufeff[{\"kind\":\"event\",\"label\":\"x\"}]",
	`[]`, `null`, `[null]`, `[{}]`, `{`, ``, `[[`, `[1,2]`,
}

// FuzzDecodeBatch: for arbitrary bytes the batch decoder returns what
// json.Decoder.Decode(&[]WireRecord) + FromWire return, or both fail
// with the same message; never a panic, never more records or string
// bytes than the body could spell.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range fuzzBodies {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d Decoder
		checkBatch(t, &d, body)
	})
}

// FuzzDecodeEnvelope: the same contract for one stream line against
// json.Unmarshal(&Envelope) + FromWire, ID kept.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, s := range fuzzBodies {
		if inner, ok := strings.CutPrefix(s, "["); ok {
			inner = strings.TrimSuffix(strings.TrimSpace(inner), "]")
			f.Add([]byte(`{"record":` + inner + `}`))
		}
	}
	for _, s := range []string{`{"eof":true}`, `{"error":"boom","code":"internal"}`, `{}`, `{"record":null}`,
		` { "record" : {"kind":"event","label":"x"} } `, `{"record":{"kind":"event","label":"x"},"eof":true}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d Decoder
		checkLine(t, &d, line)
	})
}

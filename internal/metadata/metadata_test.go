package metadata

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vfs"
)

// activeSegPath locates the active segment file via the manifest.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	segs, ok, err := readManifest(vfs.OS, dir)
	if err != nil || !ok {
		t.Fatalf("reading manifest: ok=%v err=%v", ok, err)
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

func obs(frame, person int, label string, v float64) Record {
	return Record{
		Kind: KindObservation, Frame: frame, FrameEnd: frame + 1,
		Time:   time.Duration(frame) * 40 * time.Millisecond,
		Person: person, Other: -1, Label: label, Value: v,
	}
}

func TestRecordValidate(t *testing.T) {
	good := obs(1, 0, "happy", 0.9)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Record)
	}{
		{"bad kind", func(r *Record) { r.Kind = 99 }},
		{"empty label", func(r *Record) { r.Label = "" }},
		{"huge label", func(r *Record) { r.Label = string(make([]byte, 300)) }},
		{"negative frame", func(r *Record) { r.Frame = -1 }},
		{"inverted interval", func(r *Record) { r.FrameEnd = 0; r.Frame = 5 }},
		{"empty tag key", func(r *Record) { r.Tags = map[string]string{"": "x"} }},
		{"NaN value", func(r *Record) { r.Value = math.NaN() }},
		{"+Inf value", func(r *Record) { r.Value = math.Inf(1) }},
		{"-Inf value", func(r *Record) { r.Value = math.Inf(-1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := good
			c.mut(&r)
			if err := r.Validate(); !errors.Is(err, ErrBadRecord) {
				t.Errorf("err = %v", err)
			}
		})
	}
	// Context records may omit the frame.
	ctx := Record{Kind: KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1, Label: "location"}
	if err := ctx.Validate(); err != nil {
		t.Errorf("context record: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := []Record{
		obs(10, 2, "happy", 0.83),
		{Kind: KindEvent, Frame: 100, FrameEnd: 160, Time: 4 * time.Second,
			Person: 0, Other: 2, Label: "eye-contact", Value: 1,
			Tags: map[string]string{"camera": "C1", "scene": "3"}},
		{Kind: KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1,
			Label: "location", Tags: map[string]string{"value": "meeting room"}},
	}
	for i, want := range recs {
		want.ID = uint64(i + 1)
		buf := appendRecord(nil, want)
		got, err := readRecord(byteReader(buf))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		assertRecordEq(t, got, want)
	}
}

func byteReader(b []byte) *countingReader {
	return &countingReader{r: bytes.NewReader(b)}
}

func assertRecordEq(t *testing.T, got, want Record) {
	t.Helper()
	if got.ID != want.ID || got.Kind != want.Kind || got.Frame != want.Frame ||
		got.FrameEnd != want.FrameEnd || got.Time != want.Time ||
		got.Person != want.Person || got.Other != want.Other ||
		got.Label != want.Label || got.Value != want.Value {
		t.Fatalf("record mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Tags) != len(want.Tags) {
		t.Fatalf("tags mismatch: %v vs %v", got.Tags, want.Tags)
	}
	for k, v := range want.Tags {
		if got.Tags[k] != v {
			t.Fatalf("tag %q: %q vs %q", k, got.Tags[k], v)
		}
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(id uint64, frame uint16, person int8, label string, value float64, tagV string) bool {
		if label == "" {
			label = "x"
		}
		if len(label) > 200 {
			label = label[:200]
		}
		if len(tagV) > 500 {
			tagV = tagV[:500]
		}
		want := Record{
			ID: id, Kind: KindObservation, Frame: int(frame), FrameEnd: int(frame) + 1,
			Person: int(person), Other: -1, Label: label, Value: value,
			Tags: map[string]string{"k": tagV},
		}
		buf := appendRecord(nil, want)
		got, err := readRecord(byteReader(buf))
		if err != nil {
			return false
		}
		if got.Label != want.Label || got.Tags["k"] != want.Tags["k"] ||
			got.Frame != want.Frame || got.Person != want.Person {
			return false
		}
		// NaN values survive as NaN (bit-level round trip).
		if value != value {
			return got.Value != got.Value
		}
		return got.Value == want.Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRepositoryAppendQuery(t *testing.T) {
	r := NewMem()
	for i := 0; i < 100; i++ {
		rec := obs(i, i%4, []string{"neutral", "happy", "sad"}[i%3], float64(i)/100)
		if _, err := r.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 100 {
		t.Fatalf("len = %d", r.Len())
	}
	got, err := r.Query("label = 'happy' AND frame < 30")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range got {
		if rec.Label != "happy" || rec.Frame >= 30 {
			t.Errorf("stray record %v", rec)
		}
	}
	if len(got) != 10 {
		t.Errorf("got %d records, want 10", len(got))
	}
	// Results sorted by frame.
	for i := 1; i < len(got); i++ {
		if got[i].Frame < got[i-1].Frame {
			t.Error("results not frame-ordered")
		}
	}
}

func TestRepositoryPersonQuery(t *testing.T) {
	r := NewMem()
	if _, err := r.Append(Record{
		Kind: KindEvent, Frame: 50, FrameEnd: 80, Person: 0, Other: 2,
		Label: "eye-contact", Value: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(obs(10, 3, "happy", 1)); err != nil {
		t.Fatal(err)
	}
	// person is 1-based in queries; the EC record involves P1 (ID 0)
	// as person and P3 (ID 2) as other.
	got, err := r.Query("person = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Label != "eye-contact" {
		t.Errorf("person=1 → %v", got)
	}
	// other = 3 finds the same record.
	got, err = r.Query("other = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("other=3 → %v", got)
	}
}

func TestQueryOperatorsAndGrouping(t *testing.T) {
	r := NewMem()
	for i := 0; i < 20; i++ {
		if _, err := r.Append(obs(i, 0, "happy", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Query("(frame < 5 OR frame >= 15) AND value != 3")
	if err != nil {
		t.Fatal(err)
	}
	want := 9 // frames 0,1,2,4 + 15..19
	if len(got) != want {
		t.Errorf("got %d, want %d", len(got), want)
	}
	got, err = r.Query("NOT frame < 18")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("NOT query got %d", len(got))
	}
}

func TestQueryTagAndKind(t *testing.T) {
	r := NewMem()
	rec := obs(5, 1, "gaze", 0.7)
	rec.Tags = map[string]string{"camera": "C2"}
	if _, err := r.Append(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(obs(6, 1, "gaze", 0.7)); err != nil {
		t.Fatal(err)
	}
	got, err := r.Query("tag.camera = 'C2'")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Frame != 5 {
		t.Errorf("tag query → %v", got)
	}
	// tag != matches records lacking the tag too.
	got, err = r.Query("tag.camera != 'C2'")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Frame != 6 {
		t.Errorf("tag != query → %v", got)
	}
	got, err = r.Query("kind = observation")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("kind query → %d", len(got))
	}
}

func TestQuerySyntaxErrors(t *testing.T) {
	r := NewMem()
	bad := []string{
		"",
		"label =",
		"= 'x'",
		"label = 'unterminated",
		"bogusfield = 3",
		"frame = 'str'",
		"label < 'x'",
		"kind = 99",
		"kind = nosuchkind",
		"(frame = 1",
		"frame = 1 extra",
		"tag. = 'x'",
	}
	for _, q := range bad {
		if _, err := r.Query(q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("query %q: err = %v, want ErrBadQuery", q, err)
		}
	}
}

func TestQueryPlannerMatchesFullScan(t *testing.T) {
	// Property: the indexed path returns exactly what a brute-force
	// scan returns.
	r := NewMem()
	labels := []string{"happy", "sad", "eye-contact", "shot"}
	for i := 0; i < 200; i++ {
		rec := obs(i, i%5, labels[i%len(labels)], float64(i%7))
		if i%3 == 0 {
			rec.Kind = KindEvent
		}
		if _, err := r.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"label = 'happy'",
		"label = 'happy' AND person = 2",
		"kind = event AND value > 3",
		"person = 3 AND frame >= 100",
		"label = 'sad' OR label = 'shot'",
	}
	for _, q := range queries {
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := r.QueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		var brute []Record
		r.Scan(func(rec Record) bool {
			ok, err := expr.Eval(rec)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				brute = append(brute, rec)
			}
			return true
		})
		if len(indexed) != len(brute) {
			t.Errorf("query %q: indexed %d vs brute %d", q, len(indexed), len(brute))
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 50; i++ {
		id, err := r.Append(obs(i, i%4, "happy", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 50 {
		t.Fatalf("recovered %d records, want 50", r2.Len())
	}
	if rec, ok := r2.Get(ids[10]); !ok || rec.Frame != 10 {
		t.Errorf("Get(%d) = %v, %v", ids[10], rec, ok)
	}
	// Appends continue with fresh IDs.
	id, err := r2.Append(obs(99, 0, "sad", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id != 51 {
		t.Errorf("next id = %d, want 51", id)
	}
}

func TestRecoveryTruncatesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the last few bytes of the active segment (torn final
	// write).
	path := activeSegPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 19 {
		t.Errorf("recovered %d records after torn tail, want 19", r2.Len())
	}
	// The store remains writable and the new record is durable.
	if _, err := r2.Append(obs(100, 0, "sad", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if r3.Len() != 20 {
		t.Errorf("after repair-and-append: %d records, want 20", r3.Len())
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compact appends work.
	if _, err := r.Append(obs(99, 1, "sad", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 31 {
		t.Errorf("after compact+append reopen: %d, want 31", r2.Len())
	}
}

func TestClosedRepositoryRejects(t *testing.T) {
	r := NewMem()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(obs(1, 0, "x", 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("append err = %v", err)
	}
	if _, err := r.Query("frame = 1"); !errors.Is(err, ErrClosed) {
		t.Errorf("query err = %v", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestKindParse(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("kind %v round trip: %v %v", k, back, err)
		}
	}
	if _, err := ParseKind("nope"); !errors.Is(err, ErrBadQuery) {
		t.Error("unknown kind should fail")
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind should render")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{ID: 3, Kind: KindEvent, Frame: 10, FrameEnd: 60, Person: 0, Other: 2,
		Label: "eye-contact", Value: 1, Tags: map[string]string{"a": "b"}}
	if r.String() == "" {
		t.Error("record should render")
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	r := NewMem()
	defer r.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Writers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := r.Append(obs(i, w, "happy", 0.5))
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers, interleaved.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := r.Query("label = 'happy' AND frame < 100"); err != nil {
					errs <- err
					return
				}
				if _, err := r.Count("person = 2"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.Len() != 800 {
		t.Errorf("len = %d, want 800", r.Len())
	}
	// IDs must be unique and dense.
	seen := map[uint64]bool{}
	r.Scan(func(rec Record) bool {
		if seen[rec.ID] {
			t.Fatalf("duplicate ID %d", rec.ID)
		}
		seen[rec.ID] = true
		return true
	})
}

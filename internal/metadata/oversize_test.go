package metadata

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// oversizeRecords are the two shapes Validate used to wave through and
// replay cannot read back: a payload past maxEntry (every tag within
// its own bound), and a tag count that wraps the on-disk uint16.
func oversizeRecords() map[string]Record {
	big := obs(5, 1, "tagged", 1)
	big.Tags = make(map[string]string)
	for i := 0; i < 1100; i++ {
		big.Tags[fmt.Sprintf("k%04d", i)] = strings.Repeat("v", 1024)
	}
	many := obs(5, 1, "tagged", 1)
	many.Tags = make(map[string]string)
	for i := 0; i <= maxTags+1; i++ {
		many.Tags[fmt.Sprintf("k%d", i)] = ""
	}
	return map[string]Record{"payload-over-maxEntry": big, "tag-count-over-uint16": many}
}

// TestOversizeRecordRefused: a record replay could not read back must be
// refused at the door with ErrBadRecord — acknowledged, it used to take
// every later record of its segment with it on the next open (silently:
// the lenient active replay truncated at it as if it were a torn tail).
func TestOversizeRecordRefused(t *testing.T) {
	for name, bad := range oversizeRecords() {
		for _, via := range []string{"Append", "AppendBatch"} {
			t.Run(name+"/"+via, func(t *testing.T) {
				dir := t.TempDir()
				r, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Append(obs(0, 0, "happy", 1)); err != nil {
					t.Fatal(err)
				}
				if via == "Append" {
					_, err = r.Append(bad)
				} else {
					err = r.AppendBatch([]Record{obs(1, 0, "sad", 1), bad})
				}
				if !errors.Is(err, ErrBadRecord) {
					t.Fatalf("%s of a %d-tag record: err = %v, want ErrBadRecord", via, len(bad.Tags), err)
				}
				for i := 2; i < 5; i++ {
					if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				r2, err := Open(dir)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer r2.Close()
				if r2.Len() != 4 {
					t.Fatalf("reopened with %d records, want the 4 acknowledged ones", r2.Len())
				}
				if h, err := r2.Health(); err != nil || len(h.Recovery) != 0 {
					t.Fatalf("clean close reopened with recovery actions: %v", h.Recovery)
				}
			})
		}
	}
}

// TestLargestRecordRoundTrips pins the bound from the other side: the
// largest record Validate accepts survives a reopen.
func TestLargestRecordRoundTrips(t *testing.T) {
	rec := obs(1, 0, "tagged", 1)
	rec.Tags = make(map[string]string)
	size := minPayload + len(rec.Label)
	for i := 0; size+1+5+2+1024 <= maxEntry; i++ {
		rec.Tags[fmt.Sprintf("k%04d", i)] = strings.Repeat("v", 1024)
		size += 1 + 5 + 2 + 1024
	}
	rec.Tags["pad"] = strings.Repeat("p", maxEntry-size-1-3-2)
	if err := rec.Validate(); err != nil {
		t.Fatalf("a record encoding to exactly maxEntry: %v", err)
	}
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(obs(2, 0, "happy", 1)); err != nil {
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
	got, ok := r2.Get(1)
	if r2.Len() != 2 || !ok || len(got.Tags) != len(rec.Tags) || got.Tags["pad"] != rec.Tags["pad"] {
		t.Fatalf("largest record did not round-trip: len %d, found %v, %d tags", r2.Len(), ok, len(got.Tags))
	}
}

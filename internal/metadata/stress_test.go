package metadata

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// stressRecord builds a self-consistent record: every field is a pure
// function of frame, so a reader can detect torn reads field-by-field.
func stressRecord(frame int) Record {
	return Record{
		Kind:     KindObservation,
		Frame:    frame,
		FrameEnd: frame + 1,
		Time:     time.Duration(frame) * 40 * time.Millisecond,
		Person:   frame % 4,
		Other:    -1,
		Label:    []string{"happy", "sad", "neutral"}[frame%3],
		Value:    float64(frame%97) / 97,
	}
}

func checkStressRecord(t *testing.T, rec Record) {
	t.Helper()
	want := stressRecord(rec.Frame)
	if rec.FrameEnd != want.FrameEnd || rec.Time != want.Time ||
		rec.Person != want.Person || rec.Label != want.Label ||
		rec.Value != want.Value {
		t.Errorf("torn record observed: %+v", rec)
	}
}

// TestStressConcurrentAppendQueryCompact hammers one durable repository
// with concurrent AppendBatch writers, streaming QueryIter readers and a
// Compact loop. Run under -race (scripts/check.sh does). Readers must
// never observe torn records, and an OrderID cursor must never yield
// out-of-order or duplicate IDs.
func TestStressConcurrentAppendQueryCompact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: check.sh runs the stress in its own -race pass")
	}
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const (
		writers   = 2
		batches   = 60
		batchSize = 40
	)
	var wg sync.WaitGroup
	writersDone := make(chan struct{})

	// Writers: disjoint frame ranges, batched appends.
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		wwg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer wwg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]Record, batchSize)
				for i := range batch {
					batch[i] = stressRecord(w*1000000 + b*batchSize + i)
				}
				if err := r.AppendBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() { wwg.Wait(); close(writersDone) }()

	// Compactor: rewrite the log continuously while everyone else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			if err := r.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Streaming readers: full OrderID cursors assert monotone IDs and
	// untorn fields; OrderFrame cursors with limits exercise the merge
	// and early Close (cancellation) paths.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-writersDone:
					if round > 0 {
						return
					}
				default:
				}
				it, err := r.QueryIter("label = 'happy' AND frame >= 0", QueryOpts{Order: OrderID})
				if err != nil {
					t.Error(err)
					return
				}
				var last uint64
				n := 0
				for {
					rec, ok := it.Next()
					if !ok {
						break
					}
					if rec.ID <= last {
						t.Errorf("OrderID cursor went backwards: %d after %d", rec.ID, last)
						it.Close()
						return
					}
					last = rec.ID
					checkStressRecord(t, rec)
					n++
				}
				if err := it.Close(); err != nil {
					t.Error(err)
					return
				}

				it2, err := r.QueryIter("person = 2 AND frame < 500000", QueryOpts{Order: OrderFrame, Limit: 5})
				if err != nil {
					t.Error(err)
					return
				}
				for {
					rec, ok := it2.Next()
					if !ok {
						break
					}
					checkStressRecord(t, rec)
				}
				it2.Close()

				// Abandon a cursor mid-stream: Close must cancel cleanly.
				it3, err := r.QueryIter("frame >= 0", QueryOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				it3.Next()
				if err := it3.Close(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	wg.Wait()

	// Post-quiescence: everything written is present exactly once.
	want := writers * batches * batchSize
	if r.Len() != want {
		t.Fatalf("len = %d, want %d", r.Len(), want)
	}
	seen := make(map[uint64]bool, want)
	if err := r.Scan(func(rec Record) bool {
		if seen[rec.ID] {
			t.Fatalf("duplicate ID %d", rec.ID)
		}
		seen[rec.ID] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClosedRepositorySentinel pins the ErrClosed contract across every
// read and write entry point after Close.
func TestClosedRepositorySentinel(t *testing.T) {
	r := NewMem()
	if _, err := r.Append(stressRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query("frame = 1"); !errors.Is(err, ErrClosed) {
		t.Errorf("Query err = %v, want ErrClosed", err)
	}
	if _, err := r.QueryIter("frame = 1", QueryOpts{}); !errors.Is(err, ErrClosed) {
		t.Errorf("QueryIter err = %v, want ErrClosed", err)
	}
	expr, err := Parse("frame = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.QueryExpr(expr); !errors.Is(err, ErrClosed) {
		t.Errorf("QueryExpr err = %v, want ErrClosed", err)
	}
	if _, err := r.NaiveQueryExpr(expr); !errors.Is(err, ErrClosed) {
		t.Errorf("NaiveQueryExpr err = %v, want ErrClosed", err)
	}
	if _, err := r.Aggregate("frame = 1", AggCount, GroupNone); !errors.Is(err, ErrClosed) {
		t.Errorf("Aggregate err = %v, want ErrClosed", err)
	}
	if _, err := r.Count("frame = 1"); !errors.Is(err, ErrClosed) {
		t.Errorf("Count err = %v, want ErrClosed", err)
	}
	if err := r.Scan(func(Record) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Errorf("Scan err = %v, want ErrClosed", err)
	}
	if _, err := r.Explain("frame = 1", QueryOpts{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Explain err = %v, want ErrClosed", err)
	}
	if err := r.AppendBatch([]Record{stressRecord(2)}); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendBatch err = %v, want ErrClosed", err)
	}
	if err := r.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact err = %v, want ErrClosed", err)
	}
}

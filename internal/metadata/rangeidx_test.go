package metadata

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestRangeIndexStragglerStaysAlone is the shape every second stream
// produces: in-order records, one key from the past, in-order records
// again. Only the straggler may sit in the tails — a tail that also
// takes everything behind it is copied, sorted and evaluated by every
// window query until it outgrows its limit.
func TestRangeIndexStragglerStaysAlone(t *testing.T) {
	r := NewMem()
	defer r.Close()
	const n, m = 2000, 500 // m below the tail's 1024 floor: no compaction hides the damage
	add := func(frame int) {
		t.Helper()
		if _, err := r.Append(obs(frame, frame%4, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		add(i)
	}
	add(5)
	for i := 0; i < m; i++ {
		add(n + i)
	}
	if f, tm := len(r.byFrame.tail), len(r.byTime.tail); f != 1 || tm != 1 {
		t.Fatalf("tails hold %d (frame) and %d (time) positions after one out-of-order record, want 1 and 1", f, tm)
	}
	for _, q := range []string{"frame >= 100 AND frame < 110", "time >= 4 AND time < 4.4"} {
		plan, err := r.Explain(q, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "(+1 unsorted tail)") {
			t.Errorf("%q does not ride a one-record tail:\n%s", q, plan)
		}
	}
}

// TestRangeIndexProperty drives rangeIdx alone through seeded
// interleavings of in-order, equal and out-of-order keys, far enough to
// cross the tail's compaction threshold, and after every insert checks
// what the planner relies on: the sorted run is ordered by (key,
// position), run and tail together hold exactly the inserted positions,
// and a window plus the tail is a superset of the brute-force answer.
func TestRangeIndexProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9000 + seed))
			var keys []int64
			key := func(pos int) int64 { return keys[pos] }
			late := 2 + rng.Intn(3) // one insert in `late` arrives out of order
			var ri rangeIdx
			var top int64
			compactions := 0
			for pos := 0; pos < 6000; pos++ {
				k := top // an equal key
				switch {
				case rng.Intn(late) == 0:
					k = rng.Int63n(top + 1)
				case rng.Intn(3) > 0:
					k = top + 1 + rng.Int63n(3)
				}
				top = max(top, k)
				keys = append(keys, k)
				tailBefore := len(ri.tail)
				ri.insert(pos, key)
				if len(ri.tail) < tailBefore {
					compactions++
				}

				seen := make([]bool, pos+1)
				for i, p := range ri.sorted {
					if i > 0 {
						q := ri.sorted[i-1]
						if keys[q] > keys[p] || (keys[q] == keys[p] && q >= p) {
							t.Fatalf("insert %d: sorted run out of order at %d: (%d,%d) before (%d,%d)", pos, i, keys[q], q, keys[p], p)
						}
					}
					seen[p] = true
				}
				for _, p := range ri.tail {
					if seen[p] {
						t.Fatalf("insert %d: position %d indexed twice", pos, p)
					}
					seen[p] = true
				}
				if len(ri.sorted)+len(ri.tail) != pos+1 {
					t.Fatalf("insert %d: %d sorted + %d tail positions", pos, len(ri.sorted), len(ri.tail))
				}
				if limit := max(1024, len(ri.sorted)/8); len(ri.tail) > limit {
					t.Fatalf("insert %d: tail of %d outgrew its limit %d", pos, len(ri.tail), limit)
				}

				loK := rng.Int63n(top + 2)
				hiK := loK + rng.Int63n(20)
				lo, hi := window(ri.sorted, key, loK, hiK)
				covered := make(map[int]bool, hi-lo+len(ri.tail))
				for _, p := range ri.sorted[lo:hi] {
					covered[p] = true
				}
				for _, p := range ri.tail {
					covered[p] = true
				}
				for p, k := range keys {
					if k >= loK && k <= hiK && !covered[p] {
						t.Fatalf("insert %d: window [%d, %d] misses position %d (key %d)", pos, loK, hiK, p, k)
					}
				}
			}
			if compactions == 0 {
				t.Fatalf("the tail never crossed its compaction threshold (1 insert in %d late)", late)
			}
		})
	}
}

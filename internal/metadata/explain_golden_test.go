package metadata

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// explainGoldenText renders Explain for fixed and generated queries over
// an in-memory store and a multi-segment store with sidecars, both fed in
// frame order (an empty range-index tail, so the text does not depend on
// how the tail is kept). The exec: line is cut after its record counts —
// the part of it that describes the executor's layout is free to change.
func explainGoldenText(t *testing.T) string {
	t.Helper()
	mem := planFixture(t)
	defer mem.Close()
	dir := t.TempDir()
	statsFixture(t, dir, 2000)
	disk, err := Open(dir, WithSegmentSize(300))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for i := 2000; i < 2100; i++ {
		if _, err := disk.Append(obs(i, i%5, "happy", float64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	fixed := []string{
		"label = 'happy' AND person = 1 AND frame >= 100",
		"label = 'eye-contact' AND kind = event AND person = 4 AND frame >= 100",
		"frame >= 100 AND frame < 110",
		"time >= 4 AND time < 4.4",
		"frame >= 10 AND frame < 20 AND time < 30",
		"frame < 5 OR frame >= 95",
		"(frame < 5 AND value > 1) OR frame >= 1995",
		"label = 'absent'",
		"label = 'absent' OR frame > 5000",
		"value > 3",
		"frame > 100 AND frame < 50",
		"kind = observation AND label = 'sad' AND time > 70",
	}
	var b strings.Builder
	for si, r := range []*Repository{mem, disk} {
		rng := rand.New(rand.NewSource(int64(7 + si)))
		queries := append([]string(nil), fixed...)
		for i := 0; i < 40; i++ {
			queries = append(queries, genQuery(rng, 3))
		}
		for qi, q := range queries {
			out, err := r.Explain(q, QueryOpts{Order: Order(qi % int(numOrders)), Limit: qi % 4})
			if err != nil {
				t.Fatalf("Explain(%q): %v", q, err)
			}
			fmt.Fprintf(&b, "-- store %d\n", si)
			for _, line := range strings.SplitAfter(out, "\n") {
				if i := strings.Index(line, " records, "); i >= 0 && strings.HasPrefix(line, "  exec: ") {
					line = line[:i] + " records\n"
				}
				b.WriteString(line)
			}
		}
	}
	return b.String()
}

// TestExplainGolden pins Explain's plan lines to the text the planner
// printed when it still built them while planning (recorded at that
// commit; UPDATE_GOLDEN=1 rewrites the file).
func TestExplainGolden(t *testing.T) {
	got := explainGoldenText(t)
	path := filepath.Join("testdata", "explain_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("explain text diverges from %s at line %d:\n got  %q\n want %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("explain text has %d lines, %s has %d", len(gl), path, len(wl))
}

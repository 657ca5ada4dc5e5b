package metadata

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Aggregations over query results — the analytical half of the paper's
// "rich query vocabulary": counting eye contacts per pair, averaging
// emotion confidence per participant, histogramming events over time.

// AggOp selects the aggregation function.
type AggOp uint8

// Aggregation operators over Record.Value.
const (
	// AggCount counts matching records (Value ignored).
	AggCount AggOp = iota
	// AggSum sums Value.
	AggSum
	// AggAvg averages Value.
	AggAvg
	// AggMin takes the minimum Value.
	AggMin
	// AggMax takes the maximum Value.
	AggMax
)

// String names the operator.
func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("agg(%d)", uint8(op))
}

// GroupKey selects the grouping dimension.
type GroupKey uint8

// Grouping dimensions.
const (
	// GroupNone aggregates everything into one row.
	GroupNone GroupKey = iota
	// GroupByLabel groups by Record.Label.
	GroupByLabel
	// GroupByPerson groups by Record.Person (1-based in output keys,
	// matching query syntax; person-less records group under "P0").
	GroupByPerson
	// GroupByPair groups by the (Person, Other) pair, unordered.
	GroupByPair
	// GroupByKind groups by Record.Kind.
	GroupByKind
)

// AggRow is one aggregation result row.
type AggRow struct {
	// Key identifies the group ("" for GroupNone).
	Key string
	// N is the number of records in the group.
	N int
	// Value is the aggregated value (N for AggCount).
	Value float64
}

// ErrEmptyAgg is returned by Aggregate when min/max meet no rows.
var ErrEmptyAgg = errors.New("metadata: aggregation over empty set")

// Aggregate filters records with the query and folds Value with op,
// grouped by key. Rows are sorted by Key. AggMin/AggMax over an empty
// result return ErrEmptyAgg; the other operators return a single zero
// row for GroupNone and no rows otherwise.
func (r *Repository) Aggregate(query string, op AggOp, key GroupKey) ([]AggRow, error) {
	expr, err := Parse(query)
	if err != nil {
		return nil, err
	}
	// Stream the planned execution: records fold into their groups as
	// segments merge, so the matched set is never materialised. Frame
	// order keeps float accumulation identical to the historical path;
	// pure counting is order-insensitive and skips the segment sorts.
	ord := OrderFrame
	if op == AggCount {
		ord = OrderID
	}
	it, err := r.QueryExprIter(expr, QueryOpts{Order: ord})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	groups := make(map[string]*AggRow)
	get := func(k string) *AggRow {
		g, ok := groups[k]
		if !ok {
			g = &AggRow{Key: k}
			if op == AggMin {
				g.Value = math.Inf(1)
			}
			if op == AggMax {
				g.Value = math.Inf(-1)
			}
			groups[k] = g
		}
		return g
	}
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		g := get(groupKey(rec, key))
		g.N++
		switch op {
		case AggCount:
			g.Value = float64(g.N)
		case AggSum, AggAvg:
			g.Value += rec.Value
		case AggMin:
			if rec.Value < g.Value {
				g.Value = rec.Value
			}
		case AggMax:
			if rec.Value > g.Value {
				g.Value = rec.Value
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if len(groups) == 0 {
		if op == AggMin || op == AggMax {
			return nil, fmt.Errorf("metadata: %v of %q: %w", op, query, ErrEmptyAgg)
		}
		if key == GroupNone {
			return []AggRow{{}}, nil
		}
		return nil, nil
	}
	out := make([]AggRow, 0, len(groups))
	for _, g := range groups {
		if op == AggAvg && g.N > 0 {
			g.Value /= float64(g.N)
		}
		out = append(out, *g)
	}
	sortAggRows(out, key)
	return out, nil
}

// sortAggRows orders result rows for presentation: person and pair keys
// sort by participant index (P2 before P10 — a lexical sort would
// misplace every scene with ten or more participants), labels and kinds
// lexically.
func sortAggRows(rows []AggRow, key GroupKey) {
	switch key {
	case GroupByPerson:
		sort.Slice(rows, func(i, j int) bool {
			a, aok := personIndex(rows[i].Key)
			b, bok := personIndex(rows[j].Key)
			if aok && bok {
				return a < b
			}
			return rows[i].Key < rows[j].Key
		})
	case GroupByPair:
		sort.Slice(rows, func(i, j int) bool {
			a1, a2, aok := pairIndexes(rows[i].Key)
			b1, b2, bok := pairIndexes(rows[j].Key)
			if aok && bok {
				if a1 != b1 {
					return a1 < b1
				}
				return a2 < b2
			}
			return rows[i].Key < rows[j].Key
		})
	default:
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	}
}

// personIndex parses a "P<n>" group key.
func personIndex(key string) (int, bool) {
	if len(key) < 2 || key[0] != 'P' {
		return 0, false
	}
	n, err := strconv.Atoi(key[1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// pairIndexes parses a "P<a>-P<b>" group key.
func pairIndexes(key string) (int, int, bool) {
	l, r, ok := strings.Cut(key, "-")
	if !ok {
		return 0, 0, false
	}
	a, aok := personIndex(l)
	b, bok := personIndex(r)
	if !aok || !bok {
		return 0, 0, false
	}
	return a, b, true
}

// Count is shorthand for a GroupNone AggCount.
func (r *Repository) Count(query string) (int, error) {
	rows, err := r.Aggregate(query, AggCount, GroupNone)
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	return rows[0].N, nil
}

// groupKey renders the group key of a record.
func groupKey(rec Record, key GroupKey) string {
	switch key {
	case GroupByLabel:
		return rec.Label
	case GroupByPerson:
		return fmt.Sprintf("P%d", rec.Person+1)
	case GroupByPair:
		a, b := rec.Person, rec.Other
		if a > b {
			a, b = b, a
		}
		return fmt.Sprintf("P%d-P%d", a+1, b+1)
	case GroupByKind:
		return rec.Kind.String()
	}
	return ""
}

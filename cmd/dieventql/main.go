// Command dieventql runs queries against a persisted DiEvent metadata
// repository — the paper's §II-E "rich query vocabulary" from the shell,
// executed by the planned, parallel query engine.
//
// Usage:
//
//	dieventql -repo DIR "label = 'eye-contact' AND person = 1"
//	dieventql -repo DIR "EXPLAIN label = 'happy' AND frame < 500"
//	dieventql -repo DIR -limit 0 "label = 'alert-negative-spike' FOLLOW"
//	dieventql -repo DIR -i          # interactive REPL
//
// A query ending in FOLLOW subscribes instead of scanning: matching
// history streams first (in append order), then the cursor blocks and
// yields matching records as they are appended — the repository's
// change-data-capture feed (DESIGN.md §10). -limit bounds the total
// rows (0 = follow until Ctrl-C). Ctrl-C during any query — a long
// scan or a FOLLOW — cancels just that query; in the REPL it returns
// to the prompt. -timeout puts a hard deadline on a one-shot query or
// FOLLOW (propagated into the engine via QueryOpts.Ctx); exceeding it
// exits 1 so scripts never hang on an idle subscription. On a
// read-only lease a FOLLOW ends cleanly (exit 0) once history is
// exhausted — there is no live feed without a writer — while a
// subscription the writer killed for lagging exits 1: the stream has
// a gap and downstream consumers must not treat it as complete.
//
//	dieventql -repo DIR -stats     # records + on-disk segment layout
//	dieventql -repo DIR -compact   # merge sealed segments, reclaim space
//	dieventql -repo DIR -fsck      # offline integrity check (exits 1 on damage)
//	dieventql -repo DIR -quarantine -stats   # open a damaged store degraded
//
// One-shot queries use statistics pushdown: the query is parsed first
// and the repository is opened with its filter (WithOpenFilter), so
// sealed segments whose statistics block — zone maps over frame/time,
// per-kind counts, label/person bloom filters, persisted in NNNNNN.sts
// sidecars at seal time — prove "no match here" are skipped without
// being decoded. The number of segments skipped is reported on stderr.
// Results are byte-identical to a full open (statistics only ever
// exclude conservatively and every survivor is re-checked).
//
// In the REPL, prefix any query with EXPLAIN to print its plan instead
// of executing it — plans include a "stats: pruned ..." step when
// segment statistics excluded whole position ranges; STATS prints
// repository and segment statistics (per-segment frame/time zone maps
// for segments with a verified statistics sidecar) plus the health
// report (quarantined segments, pending fault repairs); COMPACT merges
// the sealed segments of the store; "quit" exits.
//
// -fsck verifies the store without opening it: the manifest checksum,
// a strict decode of every sealed segment, each segment's statistics
// sidecar (decode, manifest CRC binding, contents vs a deterministic
// rebuild from the decoded records), and the active segment's valid
// prefix. Damage is listed per file — including which sealed segments
// a WithQuarantine open would isolate — and the exit status is
// non-zero so scripts can gate on it. Damaged sidecars are regenerated
// automatically on the next writable open.
//
// Queries, -stats and the REPL take the repository's shared read-only
// lease, so any number of them coexist (and none of them can wedge a
// later writer the way an idle exclusive lease would); -compact
// mutates the store and takes the exclusive writer lease. A repository
// currently held by a writer — e.g. a live ingesting pipeline —
// rejects both lease kinds with "repository locked" until the writer
// closes.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/metadata"
)

func main() {
	var (
		dir         = flag.String("repo", "", "repository directory (required)")
		stats       = flag.Bool("stats", false, "print repository statistics instead of querying")
		compact     = flag.Bool("compact", false, "compact the repository (merge sealed segments) and print stats")
		fsck        = flag.Bool("fsck", false, "verify the repository offline; exit non-zero on damage")
		quarantine  = flag.Bool("quarantine", false, "open in degraded mode: isolate corrupt sealed segments instead of refusing")
		limit       = flag.Int("limit", 50, "maximum rows to print (0 = all)")
		timeout     = flag.Duration("timeout", 0, "deadline for a one-shot query or FOLLOW (0 = none); exceeded ⇒ exit 1")
		interactive = flag.Bool("i", false, "interactive REPL")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "dieventql: -repo is required")
		os.Exit(2)
	}
	// -fsck never opens the repository: it verifies the files as they
	// sit on disk, which works even on damage strict Open refuses.
	if *fsck {
		os.Exit(runFsck(*dir))
	}
	// Queries, stats and the REPL only read: take the shared lease so
	// any number of them coexist and an idle REPL never wedges a
	// later writer. Only -compact mutates the store and needs the
	// exclusive writer lease.
	var opts []metadata.Option
	if !*compact {
		opts = append(opts, metadata.WithReadOnly())
	}
	if *quarantine {
		opts = append(opts, metadata.WithQuarantine())
	}
	// One-shot queries (not EXPLAIN, which wants the full plan visible)
	// push the predicate into the open itself: segments the statistics
	// block excludes are never even decoded. Parse failures fall through
	// to runQuery for a proper error message.
	if !*compact && !*stats && !*interactive {
		if q := strings.Join(flag.Args(), " "); q != "" {
			if _, isExplain := cutExplain(q); !isExplain {
				if expr, err := metadata.Parse(q); err == nil {
					opts = append(opts, metadata.WithOpenFilter(expr))
				}
			}
		}
	}
	repo, err := metadata.Open(*dir, opts...)
	if err != nil {
		fatal(err)
	}
	defer repo.Close()
	if st, err := repo.Stats(); err == nil && st.SkippedSegments > 0 {
		fmt.Fprintf(os.Stderr, "dieventql: statistics pushdown skipped %d of %d segment(s) at open\n",
			st.SkippedSegments, len(st.Segments))
	}

	switch {
	case *compact:
		if err := runCompact(repo); err != nil {
			fatal(err)
		}
	case *stats:
		if err := printStats(repo); err != nil {
			fatal(err)
		}
	case *interactive:
		repl(repo, *limit)
	default:
		q := strings.Join(flag.Args(), " ")
		if q == "" {
			fmt.Fprintln(os.Stderr, "dieventql: no query given (try: \"label = 'eye-contact'\" or -i)")
			os.Exit(2)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		if *timeout > 0 {
			// The deadline propagates into the engine through
			// QueryOpts.Ctx (and into Tail for FOLLOW), so a stuck scan
			// or an idle subscription ends deterministically: scripts
			// get exit 1 instead of a hang.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		err := runQuery(ctx, os.Stdout, repo, q, *limit)
		stop()
		if err != nil {
			fatal(err)
		}
	}
}

// runQuery executes one line: EXPLAIN renders the plan; a trailing
// FOLLOW keyword turns the query into a live subscription (history,
// then new appends as they happen, until limit rows — 0 = forever — or
// Ctrl-C); anything else streams results through the planner's cursor,
// printing the first limit rows while counting the rest. The context
// cancels mid-flight execution (Ctrl-C) and returns cleanly.
func runQuery(ctx context.Context, w *os.File, repo *metadata.Repository, q string, limit int) error {
	if rest, ok := cutExplain(q); ok {
		plan, err := repo.Explain(rest, metadata.QueryOpts{})
		if err != nil {
			return err
		}
		fmt.Fprint(w, plan)
		return nil
	}
	expr, follow, err := metadata.ParseFollow(q)
	if err != nil {
		return err
	}
	if follow {
		return runFollow(ctx, w, repo, expr, limit)
	}
	it, err := repo.QueryIter(q, metadata.QueryOpts{Ctx: ctx})
	if err != nil {
		return err
	}
	defer it.Close()
	n := 0
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		if limit <= 0 || n < limit {
			fmt.Fprintln(w, rec)
		}
		n++
	}
	if err := it.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("-timeout exceeded after %d rows", n)
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(w, "interrupted after %d rows\n", n)
			return nil
		}
		return err
	}
	if limit > 0 && n > limit {
		fmt.Fprintf(w, "… %d more rows (raise -limit)\n", n-limit)
	}
	fmt.Fprintf(w, "%d rows\n", n)
	return nil
}

// runFollow drives a QUERY ... FOLLOW subscription: matching history in
// ID order, then the live appends, each record exactly once. On a
// read-only lease the live phase never fires (no writer in this
// process), so after the history the cursor ends with ErrTailEnded —
// reported as a clean end here, exit 0. Any other terminal error (a
// query-evaluation failure, the repository closing) propagates and the
// process exits 1, letting scripts gate on it.
func runFollow(ctx context.Context, w *os.File, repo *metadata.Repository, expr metadata.Expr, limit int) error {
	cur, err := repo.Tail(expr, metadata.TailOpts{})
	if err != nil {
		return err
	}
	defer cur.Close()
	n := 0
	for limit <= 0 || n < limit {
		rec, err := cur.Next(ctx)
		if err != nil {
			switch {
			case errors.Is(err, metadata.ErrTailEnded):
				fmt.Fprintf(w, "%d rows (read-only repository: history complete, no live feed)\n", n)
				return nil
			case errors.Is(err, context.DeadlineExceeded):
				return fmt.Errorf("follow: -timeout exceeded after %d rows", n)
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(w, "interrupted after %d rows\n", n)
				return nil
			}
			return fmt.Errorf("follow after %d rows: %w", n, err)
		}
		fmt.Fprintln(w, rec)
		n++
	}
	fmt.Fprintf(w, "%d rows\n", n)
	return nil
}

// cutExplain strips a leading EXPLAIN keyword (case-insensitive).
func cutExplain(q string) (string, bool) {
	trimmed := strings.TrimSpace(q)
	if len(trimmed) >= 8 && strings.EqualFold(trimmed[:7], "explain") &&
		(trimmed[7] == ' ' || trimmed[7] == '\t') {
		return strings.TrimSpace(trimmed[7:]), true
	}
	return q, false
}

// repl reads queries from stdin until EOF or "quit".
func repl(repo *metadata.Repository, limit int) {
	fmt.Printf("dieventql REPL — %d records. EXPLAIN <query> shows a plan; STATS, COMPACT, quit.\n", repo.Len())
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for {
		fmt.Print("dieventql> ")
		if !sc.Scan() {
			fmt.Println()
			if err := sc.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "dieventql: reading input:", err)
			}
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit"):
			return
		case strings.EqualFold(line, "stats"):
			if err := printStats(repo); err != nil {
				fmt.Fprintln(os.Stderr, "dieventql:", err)
			}
		case strings.EqualFold(line, "compact"):
			if err := runCompact(repo); err != nil {
				if errors.Is(err, metadata.ErrReadOnly) {
					fmt.Fprintln(os.Stderr, "dieventql: the REPL holds a shared read-only lease; run `dieventql -repo DIR -compact` instead")
				} else {
					fmt.Fprintln(os.Stderr, "dieventql:", err)
				}
			}
		default:
			// Ctrl-C during a query (a long scan, a FOLLOW subscription)
			// cancels just that query and returns to the prompt; at the
			// prompt itself the default signal disposition applies.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
			err := runQuery(ctx, os.Stdout, repo, line, limit)
			stop()
			if err != nil {
				fmt.Fprintln(os.Stderr, "dieventql:", err)
			}
		}
	}
}

func printStats(repo *metadata.Repository) error {
	st, err := repo.Stats()
	if err != nil {
		return err
	}
	byKind := map[string]int{}
	byLabel := map[string]int{}
	if err := repo.Scan(func(r metadata.Record) bool {
		byKind[r.Kind.String()]++
		byLabel[r.Label]++
		return true
	}); err != nil {
		return err
	}
	fmt.Printf("records: %d\n", st.Records)
	if len(st.Segments) > 0 {
		fmt.Printf("storage: %d bytes in %d segment(s)\n", st.DiskBytes, len(st.Segments))
		for _, s := range st.Segments {
			state := "active"
			if s.Sealed {
				state = "sealed"
			}
			fmt.Printf("  %-12s %-6s %9d bytes  %d records", s.Name, state, s.Bytes, s.Records)
			if s.Skipped {
				fmt.Print("  (skipped at open)")
			}
			fmt.Println()
			if s.HasStats && s.Records > 0 {
				fmt.Printf("    zone: frames [%d, %d], time [%v, %v]\n",
					s.MinFrame, s.MaxFrame, s.MinTime, s.MaxTime)
			}
		}
	}
	fmt.Println("by kind:")
	for k, n := range byKind {
		fmt.Printf("  %-14s %d\n", k, n)
	}
	fmt.Println("top labels:")
	printed := 0
	for l, n := range byLabel {
		if printed >= 10 {
			break
		}
		fmt.Printf("  %-22q %d\n", l, n)
		printed++
	}
	return printHealth(repo)
}

// printHealth renders the repository's degradation report: quarantined
// segments with their frame gaps, pending fault repairs, and any
// recovery actions the open performed.
func printHealth(repo *metadata.Repository) error {
	h, err := repo.Health()
	if err != nil {
		return err
	}
	if h.Degraded {
		fmt.Println("health: DEGRADED")
	} else {
		fmt.Println("health: ok")
	}
	for _, q := range h.Quarantined {
		fmt.Printf("  quarantined %-12s %d records, %d bytes lost: %s\n", q.Name, q.Records, q.Bytes, q.Err)
		if q.FrameGap != [2]int{} {
			fmt.Printf("    frame gap: %d .. %d\n", q.FrameGap[0], q.FrameGap[1])
		}
	}
	if h.WriteFault {
		fmt.Println("  write fault: next append rewrites the active segment")
	}
	if h.PendingDirSync {
		fmt.Println("  directory fsync pending: appends retry it before acknowledging")
	}
	if len(h.StatsMissing) > 0 {
		fmt.Printf("  statistics missing for %s (pruning disabled there; a writable open regenerates)\n",
			strings.Join(h.StatsMissing, ", "))
	}
	for _, act := range h.Recovery {
		fmt.Printf("  recovery: %s\n", act)
	}
	return nil
}

// runFsck verifies dir offline and returns the process exit status:
// 0 when every file checks out, 1 on damage.
func runFsck(dir string) int {
	rep, err := metadata.Fsck(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dieventql: fsck:", err)
		return 1
	}
	for _, s := range rep.Segments {
		state := "active"
		if s.Sealed {
			state = "sealed"
		} else if strings.HasSuffix(s.Name, ".sts") {
			state = "stats"
		}
		status := "ok"
		if s.Err != "" {
			status = s.Err
		}
		fmt.Printf("  %-12s %-6s %9d bytes  %6d records  %s\n", s.Name, state, s.Bytes, s.Records, status)
		if s.Note != "" {
			fmt.Printf("    note: %s\n", s.Note)
		}
	}
	if rep.Clean() {
		fmt.Printf("fsck: clean (%d records)\n", rep.Records)
		return 0
	}
	if q := rep.Quarantinable(); len(q) > 0 {
		fmt.Printf("fsck: damage found; quarantinable sealed segment(s): %s\n", strings.Join(q, ", "))
		fmt.Println("fsck: a WithQuarantine open isolates them and serves the surviving records")
	} else {
		fmt.Println("fsck: damage found")
	}
	return 1
}

// runCompact merges the repository's sealed segments, reporting the
// segment layout before and after.
func runCompact(repo *metadata.Repository) error {
	before, err := repo.Stats()
	if err != nil {
		return err
	}
	if err := repo.Compact(); err != nil {
		return err
	}
	after, err := repo.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("compacted: %d segment(s), %d bytes → %d segment(s), %d bytes\n",
		len(before.Segments), before.DiskBytes, len(after.Segments), after.DiskBytes)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dieventql:", err)
	os.Exit(1)
}

package metadata

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// Repository is the embedded metadata store. Appends go to the active
// segment of an append-only segmented log on disk (when opened with a
// directory) and into the in-memory indexes; queries run against
// memory. Safe for concurrent use. See DESIGN.md §5 for the on-disk
// format and crash-recovery contract.
type Repository struct {
	mu sync.RWMutex

	dir      string    // "" for in-memory-only repositories
	fsys     vfs.FS    // filesystem seam; nil for in-memory
	lockFile io.Closer // dir lease (flock handle or lease file); nil for in-memory
	opts     options

	segs      []segMeta // manifest order; the last entry is active
	nextSegID uint64

	active      vfs.File // active-segment handle; nil for in-memory
	activeBuf   *bufio.Writer
	activeBytes int64 // valid bytes written to the active segment
	encBuf      []byte
	// activeStats accumulates the active segment's statistics block
	// record by record, so sealing never rescans the segment; reset at
	// every roll. nil for in-memory and read-only repositories.
	activeStats *statsBuilder

	store recStore // records; position == append order == ID order
	// Secondary indexes hold positions into the store.
	byLabel  map[string][]int
	byPerson map[int][]int
	byKind   [numKinds][]int
	// Sorted range indexes over frame and time keys. In-order appends
	// extend the sorted run in O(1); out-of-order positions collect in a
	// bounded unsorted tail merged geometrically, so ingest never pays a
	// per-record O(n) shift (the planner scans the tail as extra
	// candidates and the executor's bound re-check keeps that exact).
	byFrame rangeIdx
	byTime  rangeIdx
	// frameKeyFn/timeKeyFn are the range-index sort keys — exact int64
	// values (frame index, time in nanoseconds), bound once so the hot
	// append path allocates no method-value closures.
	frameKeyFn func(int) int64
	timeKeyFn  func(int) int64

	nextID uint64
	closed bool
	// pendingDirSync is set when a cutover's manifest rename landed but
	// its directory fsync failed: the new manifest governs, yet a crash
	// could still revert it and orphan the segment new appends target.
	// Appends and Sync retry the fsync and refuse to proceed until it
	// succeeds, so no record is acknowledged into a segment a crash
	// could silently drop.
	pendingDirSync bool
	// writeFault is set when a write to the active segment failed (for
	// example ENOSPC or a short write): an unknown prefix of the encoded
	// record may be on disk and the bufio layer holds a sticky error, so
	// the next append/Sync first rewrites the active segment from memory
	// (repairActiveLocked) before accepting more work. The store stays
	// open and readable throughout — once space frees, the repair
	// succeeds and appends resume with no duplicated or lost records.
	writeFault bool

	// health accumulates the open-time recovery report and quarantined
	// segments (see Health).
	health Health

	// compactMu serialises Compact calls; it is held across the
	// unlocked segment rewrite while mu is free for appends and queries.
	compactMu sync.Mutex

	// wake is the channel parked tail cursors wait on (see Tail): nil
	// until a cursor that has read every record parks, closed and reset
	// by the next append call, Kill or Close. Cursors set it under the
	// read lock, so it is atomic; the closers hold the write lock.
	wake atomic.Pointer[chan struct{}]
}

// SyncPolicy selects when the repository fsyncs the active segment.
// Manifest replacements and segment seals are always made durable
// (fsync + directory fsync) regardless of policy — the recovery
// contract depends on sealed segments being clean.
type SyncPolicy uint8

const (
	// SyncOnSeal (the default) fsyncs a segment when it seals and on
	// Sync/Close. A crash may lose buffered appends in the active
	// segment's tail; recovery truncates to the last valid entry.
	SyncOnSeal SyncPolicy = iota
	// SyncAlways additionally fsyncs after every Append/AppendBatch —
	// maximum durability, one fsync per call.
	SyncAlways
	// SyncNone never fsyncs appends to the active segment (only
	// explicit Sync, seals and compaction do). Fastest for bulk loads;
	// a crash loses only the active segment's un-synced tail, which
	// recovery truncates — sealed segments stay clean under every
	// policy.
	SyncNone
)

// DefaultSegmentSize is the roll threshold for the active segment.
const DefaultSegmentSize = 4 << 20

type options struct {
	segSize    int64
	sync       SyncPolicy
	readOnly   bool
	fsys       vfs.FS
	quarantine bool
	lockWait   time.Duration
	lockCtx    context.Context
	openFilter Expr
}

// Option configures Open.
type Option func(*options)

// WithSegmentSize sets the active-segment roll threshold in bytes;
// n <= 0 keeps the default. Once the active segment has reached the
// threshold it seals and a new one starts before the *next* append
// lands, so sealed segments may exceed the threshold by up to one
// encoded record.
func WithSegmentSize(n int64) Option {
	return func(o *options) {
		if n > 0 {
			o.segSize = n
		}
	}
}

// WithSyncPolicy sets the fsync policy for the active segment.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *options) { o.sync = p }
}

// WithReadOnly opens the repository for reading only: the directory
// lease is shared (any number of read-only opens coexist; a writer's
// exclusive lease still conflicts both ways), nothing on disk is
// created, repaired or deleted — a torn active tail replays as its
// valid prefix without being truncated — and Append/AppendBatch/
// Compact return ErrReadOnly. Caveat: on platforms without flock (non-unix
// builds), read-only opens take no lease at all, so only
// writer-vs-writer exclusion is enforced there and a read-only open
// racing a writer's repairs may observe a transiently inconsistent
// directory.
func WithReadOnly() Option {
	return func(o *options) { o.readOnly = true }
}

// WithFS runs the repository on an alternative filesystem — the
// crash-consistency and fault-injection suites pass a vfs.FaultFS
// here. Production opens omit it and get the real filesystem.
func WithFS(fsys vfs.FS) Option {
	return func(o *options) {
		if fsys != nil {
			o.fsys = fsys
		}
	}
}

// WithQuarantine degrades instead of refusing: a sealed segment that
// fails strict replay (checksum damage, byte/record counts diverging
// from the manifest, a missing file) is quarantined rather than
// failing Open with ErrCorrupt. The store opens with that segment's
// records absent, queries and appends proceed, and Health reports the
// quarantined segments with the frame/time gap their loss leaves.
// Compact refuses with ErrQuarantined while any segment is
// quarantined — merging would launder the gap into a clean-looking
// segment. Without this option (the default, and what the
// oracle-equivalence suites run under) corruption still fails Open.
func WithQuarantine() Option {
	return func(o *options) { o.quarantine = true }
}

// WithOpenFilter restricts a read-only open to the segments a query
// predicate cannot exclude: sealed segments whose statistics block
// (zone maps, kind counts, label/person bloom filters — see DESIGN.md
// §9) proves that no record can satisfy expr are skipped wholesale,
// never decoded. Queries over the resulting repository see only the
// surviving records, so expr (or something it implies) should be the
// query being served — the cold-open pushdown path: parse the query,
// open with its filter, run it, close. Statistics can only exclude
// conservatively, so any record matching expr is always loaded and
// pruned results stay byte-identical to a full-replay run of the same
// query. Requires WithReadOnly (a writer must replay everything);
// segments without statistics (pre-stats repositories, damaged
// sidecars) are loaded normally.
func WithOpenFilter(expr Expr) Option {
	return func(o *options) { o.openFilter = expr }
}

// WithLockWait makes Open wait up to max for a busy directory lease
// instead of failing fast, polling with exponential backoff (1ms
// doubling, capped at 50ms). A nil ctx waits the full budget; a
// cancelled ctx stops early with the cancellation cause and ErrLocked
// both in the error chain. Timeout surfaces ErrLocked.
func WithLockWait(ctx context.Context, max time.Duration) Option {
	return func(o *options) {
		o.lockCtx = ctx
		o.lockWait = max
	}
}

// Open opens (or creates) a repository persisted under dir, taking an
// exclusive directory lease (ErrLocked if another process holds it).
// Sealed segments are replayed in parallel and must be intact; a
// corrupt tail on the active segment is truncated with only valid
// prefix records retained — the standard recovery contract for an
// append-only store. A directory still holding a pre-segmentation
// metadata.log and no manifest is refused (errors.ErrUnsupported).
func Open(dir string, opts ...Option) (*Repository, error) {
	o := options{segSize: DefaultSegmentSize, sync: SyncOnSeal, fsys: vfs.OS}
	for _, opt := range opts {
		opt(&o)
	}
	if o.openFilter != nil && !o.readOnly {
		return nil, fmt.Errorf("metadata: WithOpenFilter requires WithReadOnly (a writer must replay every segment): %w", ErrBadQuery)
	}
	if !o.readOnly {
		if err := o.fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("metadata: creating %s: %w", dir, err)
		}
	}
	lock, err := lockDir(o.fsys, dir, o)
	if err != nil {
		return nil, err
	}
	r := newMem()
	r.dir = dir
	r.fsys = o.fsys
	r.lockFile = lock
	r.opts = o
	if err := r.load(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	return r, nil
}

// NewMem returns a purely in-memory repository (no durability) — used by
// tests and short-lived analyses.
func NewMem() *Repository { return newMem() }

func newMem() *Repository {
	r := &Repository{
		byLabel:  make(map[string][]int),
		byPerson: make(map[int][]int),
		nextID:   1,
	}
	r.frameKeyFn = func(pos int) int64 { return int64(r.store.at(pos).Frame) }
	r.timeKeyFn = func(pos int) int64 { return r.store.at(pos).Time.Nanoseconds() }
	return r
}

// load reads the manifest, removes orphaned files, replays every
// segment (sealed ones in parallel) and opens the active segment for
// appending.
func (r *Repository) load() error {
	segs, haveManifest, err := readManifest(r.fsys, r.dir)
	if err != nil {
		return err
	}
	if !haveManifest {
		if r.opts.readOnly {
			return r.loadNoManifestReadOnly()
		}
		if err := ensureInitSafe(r.fsys, r.dir); err != nil {
			return err
		}
		// A fresh repository: one empty active segment.
		segs = []segMeta{{name: segFileName(1)}}
	}
	if !r.opts.readOnly {
		removed, err := removeOrphans(r.fsys, r.dir, segs)
		if err != nil {
			return err
		}
		if removed > 0 {
			r.recovered("removed %d orphaned file(s)", removed)
		}
	}
	r.segs = segs
	r.nextSegID = nextSegIDAfter(segs)

	// Load each sealed segment's statistics sidecar (manifest-referenced
	// NNNNNN.sts). A sidecar that is missing, torn, or of a different
	// version than the manifest's sts= CRC simply stays nil: a writable
	// open regenerates it after replay, a read-only open forgoes pruning
	// for that segment. With an open filter (WithOpenFilter), segments
	// whose statistics exclude every possible match are marked skipped
	// before replay begins — their records are never decoded.
	var filterBranches []conjuncts
	if r.opts.openFilter != nil {
		filterBranches = pruneBranches(r.opts.openFilter)
	}
	skippedSegs := 0
	for i := 0; i < len(segs)-1; i++ {
		if !segs[i].hasStats {
			continue
		}
		st, err := readStats(r.fsys, r.dir, segs[i])
		if err != nil {
			continue
		}
		segs[i].stats = st
		if filterBranches != nil && excludedByAll(st, filterBranches) {
			segs[i].skipped = true
			skippedSegs++
		}
	}
	if skippedSegs > 0 {
		r.recovered("open filter skipped %d sealed segment(s) via statistics", skippedSegs)
	}

	// Replay sealed segments in parallel: decoding (CRC checks, payload
	// parsing) is embarrassingly parallel per segment; this goroutine
	// copies each decoded segment into the store in manifest order, so
	// positions equal append order, and releases its decode buffer — peak
	// memory is the store plus the few segments in flight, not a second
	// decoded copy of the whole dataset. The indexes are built afterwards
	// in one pass over the finished store (buildIndexes).
	sealed := segs[:len(segs)-1]
	if len(sealed) > 0 {
		loads := make([]struct {
			recs       []Record
			err        error
			quarantine error
		}, len(sealed))
		done := make([]chan struct{}, len(sealed))
		for i := range done {
			done[i] = make(chan struct{})
		}
		workers := runtime.GOMAXPROCS(0)
		if workers > len(sealed) {
			workers = len(sealed)
		}
		// Bounded read-ahead: a worker claims a decode ticket per
		// segment and the indexer returns it once that segment is
		// consumed, so at most maxAhead decoded-but-unindexed segments
		// exist at any moment — peak memory is the store plus a bounded
		// in-flight window, never a second decoded copy of the dataset.
		maxAhead := 2 * workers
		tickets := make(chan struct{}, maxAhead)
		for i := 0; i < maxAhead; i++ {
			tickets <- struct{}{}
		}
		abort := make(chan struct{})
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			go func() {
				for {
					select {
					case <-tickets:
					case <-abort:
						return
					}
					i := int(next.Add(1) - 1)
					if i >= len(sealed) {
						return
					}
					select {
					case <-abort:
						return
					default:
					}
					if sealed[i].skipped {
						// Excluded by the open filter: the whole point of
						// the statistics block — no decode, no CRC pass,
						// no allocation for this segment.
						close(done[i])
						continue
					}
					recs, n, err := decodeSegment(r.fsys, filepath.Join(r.dir, sealed[i].name), true, sealed[i].count)
					if err == nil && (n != sealed[i].bytes || len(recs) != sealed[i].count) {
						err = fmt.Errorf("metadata: sealed segment %s: %d bytes/%d records, manifest says %d/%d: %w",
							sealed[i].name, n, len(recs), sealed[i].bytes, sealed[i].count, ErrCorrupt)
					}
					if err != nil && r.opts.quarantine {
						// Degraded open: isolate the damaged segment
						// instead of failing; its manifest entry stays so
						// the file is never swept as an orphan.
						recs, loads[i].quarantine, err = nil, err, nil
					}
					loads[i].recs, loads[i].err = recs, err
					close(done[i])
				}
			}()
		}
		for i := range sealed {
			<-done[i]
			if loads[i].err != nil {
				close(abort)
				return loads[i].err
			}
			r.segs[i].first = r.store.n
			if qerr := loads[i].quarantine; qerr != nil {
				r.segs[i].quarantined = true
				r.health.Quarantined = append(r.health.Quarantined, SegmentHealth{
					Name:    r.segs[i].name,
					Err:     qerr.Error(),
					Records: r.segs[i].count,
					Bytes:   r.segs[i].bytes,
				})
			}
			r.store.appendBulk(loads[i].recs)
			loads[i].recs = nil
			tickets <- struct{}{}
		}
		close(abort) // release workers parked on the ticket select
	}

	// Active segment: lenient replay, then truncate the torn tail (if
	// any) and make the truncation durable before appending over it.
	act := &r.segs[len(r.segs)-1]
	path := filepath.Join(r.dir, act.name)
	recs, validBytes, err := decodeSegment(r.fsys, path, false, act.count)
	if err != nil {
		return err
	}
	act.first = r.store.n
	r.store.appendBulk(recs)
	act.count = len(recs)
	act.bytes = validBytes
	r.buildIndexes()
	r.fillGaps()

	if r.opts.readOnly {
		// No append handle, no tail repair: a torn tail simply replays
		// as its valid prefix on every read-only open.
		return nil
	}
	f, err := r.fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("metadata: opening active segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("metadata: active segment stat: %w", err)
	}
	if st.Size() != validBytes {
		if err := f.Truncate(validBytes); err != nil {
			f.Close()
			return fmt.Errorf("metadata: truncating corrupt tail: %w", err)
		}
		// Make the repair durable: fsync the file and its directory so a
		// crash cannot resurrect the severed tail under future appends.
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("metadata: syncing truncated segment: %w", err)
		}
		if err := syncDir(r.fsys, r.dir); err != nil {
			f.Close()
			return err
		}
		r.recovered("truncated torn tail of %s (%d → %d bytes)", act.name, st.Size(), validBytes)
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("metadata: seeking segment end: %w", err)
	}
	r.active = f
	r.activeBuf = bufio.NewWriter(f)
	r.activeBytes = validBytes
	// Seed the active segment's statistics builder from its replayed
	// records, so the next seal has them ready without a rescan.
	r.activeStats = newStatsBuilder()
	for pos := act.first; pos < r.store.n; pos++ {
		r.activeStats.add(*r.store.at(pos))
	}

	if !haveManifest {
		if _, err := writeManifest(r.fsys, r.dir, r.segs); err != nil {
			// Open fails wholesale here; whether or not the rename
			// landed, the on-disk state (first segment, manifest or
			// none) reopens consistently.
			f.Close()
			r.active = nil
			return err
		}
	}
	// Upgrade in place: rebuild any sealed segment's statistics sidecar
	// that is absent or failed verification, then reference the new CRCs
	// from a fresh manifest. Pre-stats repositories get their sidecars
	// here on first writable open; a crash mid-regeneration leaves
	// unreferenced sidecars the next open sweeps and retries.
	if regen, err := r.regenStatsLocked(); err != nil {
		f.Close()
		r.active = nil
		return err
	} else if regen > 0 {
		r.recovered("regenerated statistics sidecar(s) for %d sealed segment(s)", regen)
	}
	return nil
}

// regenStatsLocked rebuilds missing or damaged statistics sidecars for
// sealed segments from the replayed records, making them durable before
// a manifest rewrite binds their CRCs. Quarantined segments are skipped
// (their records are not in memory to rebuild from). Runs during load,
// writable opens only.
func (r *Repository) regenStatsLocked() (int, error) {
	n := 0
	view := r.store.snapshot()
	for i := 0; i < len(r.segs)-1; i++ {
		sm := &r.segs[i]
		if sm.quarantined || sm.stats != nil {
			continue
		}
		st := statsOfSnap(view, sm.first, r.segs[i+1].first)
		data := encodeStats(st)
		if err := writeStatsFile(r.fsys, r.dir, sm.name, data); err != nil {
			return n, err
		}
		sm.stats = st
		sm.hasStats = true
		sm.statsCRC = statsCRCOf(data)
		n++
	}
	if n == 0 {
		return 0, nil
	}
	if err := syncDir(r.fsys, r.dir); err != nil {
		return n, err
	}
	if _, err := writeManifest(r.fsys, r.dir, r.segs); err != nil {
		return n, err
	}
	return n, nil
}

// loadNoManifestReadOnly opens a manifest-less directory for reading:
// a lone first segment from an interrupted first open replays in place
// (lenient, nothing written); an empty directory reads as an empty
// repository. Anything else refuses (see ensureInitSafe).
func (r *Repository) loadNoManifestReadOnly() error {
	if err := ensureInitSafe(r.fsys, r.dir); err != nil {
		return err
	}
	name := segFileName(1)
	path := filepath.Join(r.dir, name)
	if _, err := r.fsys.Stat(path); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("metadata: probing %s: %w", name, err)
	}
	recs, valid, err := decodeSegment(r.fsys, path, false, 0)
	if err != nil {
		return err
	}
	r.store.appendBulk(recs)
	r.buildIndexes()
	r.segs = []segMeta{{name: name, bytes: valid, count: len(recs)}}
	return nil
}

// recovered records one open-time recovery action for Health.
func (r *Repository) recovered(format string, args ...any) {
	r.health.Recovery = append(r.health.Recovery, fmt.Sprintf(format, args...))
}

// fillGaps computes, for each quarantined segment, the frame/time
// bracket its missing records leave: the keys of the last surviving
// record before the hole and the first after it. Runs once replay has
// assigned every segment's first position.
func (r *Repository) fillGaps() {
	qi := 0
	for i := range r.segs {
		if !r.segs[i].quarantined {
			continue
		}
		h := &r.health.Quarantined[qi]
		qi++
		h.FrameGap = [2]int{-1, -1}
		if p := r.segs[i].first - 1; p >= 0 {
			h.FrameGap[0] = r.store.at(p).Frame
			h.TimeGap[0] = r.store.at(p).Time
		}
		if p := r.segs[i].first; p < r.store.n {
			h.FrameGap[1] = r.store.at(p).Frame
			h.TimeGap[1] = r.store.at(p).Time
		}
	}
}

// buildIndexes builds every secondary index and nextID over the replayed
// store: tally how many positions each index will hold, allocate each
// once at exactly that size, fill. The result equals feeding the store
// through index record by record (rangeIdx.insert still decides sorted
// run vs tail), without the per-append slice growth. The two halves run
// on two goroutines; each fills through local slice headers and stores
// them into the Repository once at the end — appending through
// neighbouring Repository fields from two goroutines would bounce their
// shared cache lines on every append. Writable opens get no headroom:
// the first append to each index grows it once, as any append past
// capacity does.
func (r *Repository) buildIndexes() {
	if r.store.n == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.buildPersonTimeIndexes()
	}()
	r.buildLabelKindFrameIndexes()
	wg.Wait()
}

func (r *Repository) buildLabelKindFrameIndexes() {
	var kinds [numKinds]int
	labels := make(map[string]int)
	for _, chunk := range r.store.chunks {
		for i := range chunk {
			kinds[chunk[i].Kind]++
			labels[chunk[i].Label]++
		}
	}
	var byKind [numKinds][]int
	for k, n := range kinds {
		if n > 0 {
			byKind[k] = make([]int, 0, n)
		}
	}
	byLabel := make(map[string][]int, len(labels))
	for l, n := range labels {
		byLabel[l] = make([]int, 0, n)
	}
	byFrame := rangeIdx{sorted: make([]int, 0, r.store.n)}
	pos := 0
	for _, chunk := range r.store.chunks {
		for i := range chunk {
			rec := &chunk[i]
			byKind[rec.Kind] = append(byKind[rec.Kind], pos)
			byLabel[rec.Label] = append(byLabel[rec.Label], pos)
			byFrame.insert(pos, r.frameKeyFn)
			pos++
		}
	}
	r.byKind, r.byLabel, r.byFrame = byKind, byLabel, byFrame
}

func (r *Repository) buildPersonTimeIndexes() {
	persons := make(map[int]int)
	var maxID uint64
	for _, chunk := range r.store.chunks {
		for i := range chunk {
			rec := &chunk[i]
			if rec.Person >= 0 {
				persons[rec.Person]++
			}
			if rec.Other >= 0 && rec.Other != rec.Person {
				persons[rec.Other]++
			}
			if rec.ID > maxID {
				maxID = rec.ID
			}
		}
	}
	byPerson := make(map[int][]int, len(persons))
	for p, n := range persons {
		byPerson[p] = make([]int, 0, n)
	}
	byTime := rangeIdx{sorted: make([]int, 0, r.store.n)}
	pos := 0
	for _, chunk := range r.store.chunks {
		for i := range chunk {
			rec := &chunk[i]
			if rec.Person >= 0 {
				byPerson[rec.Person] = append(byPerson[rec.Person], pos)
			}
			if rec.Other >= 0 && rec.Other != rec.Person {
				byPerson[rec.Other] = append(byPerson[rec.Other], pos)
			}
			byTime.insert(pos, r.timeKeyFn)
			pos++
		}
	}
	r.byPerson, r.byTime, r.nextID = byPerson, byTime, maxID+1
}

// index inserts a record into memory structures. Caller holds the lock
// (or is constructing the repository).
func (r *Repository) index(rec Record) {
	pos := r.store.n
	r.store.append(rec)
	r.byLabel[rec.Label] = append(r.byLabel[rec.Label], pos)
	if rec.Person >= 0 {
		r.byPerson[rec.Person] = append(r.byPerson[rec.Person], pos)
	}
	if rec.Other >= 0 && rec.Other != rec.Person {
		r.byPerson[rec.Other] = append(r.byPerson[rec.Other], pos)
	}
	r.byKind[rec.Kind] = append(r.byKind[rec.Kind], pos)
	r.byFrame.insert(pos, r.frameKeyFn)
	r.byTime.insert(pos, r.timeKeyFn)
}

// rangeIdx is a position index ordered by (key, position): a sorted run
// plus a bounded unsorted tail of recent out-of-order inserts. Mutated
// only under the repository write lock.
type rangeIdx struct {
	sorted []int
	tail   []int
}

// insert adds pos. A key at or past the sorted run's last extends the run
// directly, whatever the tail holds: pos exceeds every stored position,
// so the run stays ordered by (key, position), and one straggler from a
// second stream never sends the in-order records behind it to the tail.
// Only a key below the run's last lands in the tail, which merges once
// it outgrows max(1024, len/8) — O(1) amortized, never a per-record O(n)
// shift.
func (ri *rangeIdx) insert(pos int, key func(int) int64) {
	if n := len(ri.sorted); n == 0 || key(ri.sorted[n-1]) <= key(pos) {
		ri.sorted = append(ri.sorted, pos)
		return
	}
	ri.tail = append(ri.tail, pos)
	limit := len(ri.sorted) / 8
	if limit < 1024 {
		limit = 1024
	}
	if len(ri.tail) > limit {
		ri.compact(key)
	}
}

// compact merges the tail into the sorted run: O(t log t + n).
func (ri *rangeIdx) compact(key func(int) int64) {
	t := ri.tail
	if len(t) == 0 {
		return
	}
	sort.Slice(t, func(i, j int) bool {
		ki, kj := key(t[i]), key(t[j])
		if ki != kj {
			return ki < kj
		}
		return t[i] < t[j]
	})
	merged := make([]int, 0, len(ri.sorted)+len(t))
	i, j := 0, 0
	for i < len(ri.sorted) && j < len(t) {
		a, b := ri.sorted[i], t[j]
		ka, kb := key(a), key(b)
		if ka < kb || (ka == kb && a < b) {
			merged = append(merged, a)
			i++
		} else {
			merged = append(merged, b)
			j++
		}
	}
	merged = append(merged, ri.sorted[i:]...)
	merged = append(merged, t[j:]...)
	ri.sorted = merged
	ri.tail = ri.tail[:0]
}

// Append validates, assigns an ID, persists and indexes a record,
// returning the assigned ID. When the returned ID is non-zero the
// record was appended and is visible to queries even if err is
// non-nil: under SyncAlways a flush/fsync failure reports a
// *durability* problem with an already-appended record, not a
// rejection — retrying the Append would store the record twice.
func (r *Repository) Append(rec Record) (uint64, error) {
	if err := rec.Validate(); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	if r.opts.readOnly {
		return 0, ErrReadOnly
	}
	id, err := r.appendLocked(rec)
	if err != nil {
		return 0, err
	}
	r.wakeTailsLocked()
	if r.opts.sync == SyncAlways {
		if err := r.flushLocked(true); err != nil {
			return id, err
		}
	}
	return id, nil
}

// appendLocked assigns an ID, persists and indexes one validated
// record. The active segment rolls *before* the write when it is
// already past the threshold, so a roll failure rejects the append
// cleanly with nothing written. Caller holds the write lock.
func (r *Repository) appendLocked(rec Record) (uint64, error) {
	if err := r.retryDirSyncLocked(); err != nil {
		return 0, err
	}
	if err := r.repairActiveLocked(); err != nil {
		return 0, err
	}
	if r.active != nil && r.activeBytes >= r.opts.segSize {
		if err := r.rollLocked(); err != nil {
			return 0, err
		}
	}
	rec.ID = r.nextID
	if r.active != nil {
		r.encBuf = appendRecord(r.encBuf[:0], rec)
		if _, err := r.activeBuf.Write(r.encBuf); err != nil {
			// The record is rejected (not indexed, not acknowledged),
			// but an unknown prefix of it may have reached the disk and
			// the bufio layer is now sticky — flag the fault so the next
			// append rewrites the active segment from memory instead of
			// appending after garbage.
			r.writeFault = true
			return 0, fmt.Errorf("metadata: appending record: %w", err)
		}
		r.activeBytes += int64(len(r.encBuf))
		act := &r.segs[len(r.segs)-1]
		act.bytes = r.activeBytes
		act.count++
	}
	r.nextID++
	r.index(rec)
	if r.activeStats != nil {
		r.activeStats.add(rec)
	}
	return rec.ID, nil
}

// rollLocked seals the active segment and starts a new one. Ordering is
// crash-safe: the old segment is flushed and fsynced first (sealed
// segments must be clean), the new file is created and made durable,
// and only then does the manifest swap in — a crash between any two
// steps reopens consistently (at worst an orphan file, removed at
// Open). On error the repository keeps appending to the old active
// segment; the old handle is never closed until cutover succeeded.
func (r *Repository) rollLocked() error {
	if err := r.activeBuf.Flush(); err != nil {
		r.writeFault = true
		return fmt.Errorf("metadata: flushing before seal: %w", err)
	}
	// Seals fsync under every policy: strict sealed replay (and the
	// manifest's exact byte/record counts) depend on sealed segments
	// being clean after any crash.
	if err := r.active.Sync(); err != nil {
		r.writeFault = true
		return fmt.Errorf("metadata: syncing sealing segment: %w", err)
	}
	// Write the sealing segment's statistics sidecar before anything
	// references it. A failure aborts the roll cleanly (the sidecar is
	// unreferenced; appends continue on the old active segment and the
	// next roll rewrites it); a crash before the manifest lands leaves
	// an unreferenced sidecar the next open sweeps.
	sealingStats := r.activeStats.build()
	statsData := encodeStats(sealingStats)
	if err := writeStatsFile(r.fsys, r.dir, r.segs[len(r.segs)-1].name, statsData); err != nil {
		return err
	}
	newName := segFileName(r.nextSegID)
	f, err := r.fsys.OpenFile(filepath.Join(r.dir, newName), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("metadata: creating segment: %w", err)
	}
	if err := syncDir(r.fsys, r.dir); err != nil {
		f.Close()
		r.fsys.Remove(filepath.Join(r.dir, newName))
		return err
	}
	segs := make([]segMeta, len(r.segs)+1)
	copy(segs, r.segs)
	segs[len(segs)-2].sealed = true
	segs[len(segs)-2].stats = sealingStats
	segs[len(segs)-2].hasStats = true
	segs[len(segs)-2].statsCRC = statsCRCOf(statsData)
	segs[len(segs)-1] = segMeta{name: newName, first: r.store.n}
	installed, err := writeManifest(r.fsys, r.dir, segs)
	if err != nil && !installed {
		f.Close()
		r.fsys.Remove(filepath.Join(r.dir, newName))
		return err
	}
	// The new manifest governs (even if its directory fsync failed —
	// a crash may revert to the old manifest, which is also consistent
	// since the now-sealed segment stays in place); commit and retire
	// the old handle. A non-nil err still rejects the triggering
	// append, and pendingDirSync keeps rejecting appends until the
	// fsync lands — otherwise acknowledged records would accumulate in
	// a segment a crash-reverted manifest knows nothing about.
	r.active.Close()
	r.segs = segs
	r.nextSegID++
	r.active = f
	r.activeBuf.Reset(f)
	r.activeBytes = 0
	r.activeStats.reset()
	if err != nil {
		r.pendingDirSync = true
		return fmt.Errorf("metadata: sealing cutover not durable: %w", err)
	}
	return nil
}

// retryDirSyncLocked re-attempts a cutover's failed directory fsync
// (see pendingDirSync). Caller holds the write lock.
func (r *Repository) retryDirSyncLocked() error {
	if !r.pendingDirSync {
		return nil
	}
	if err := syncDir(r.fsys, r.dir); err != nil {
		return fmt.Errorf("metadata: cutover still not durable: %w", err)
	}
	r.pendingDirSync = false
	return nil
}

// repairActiveLocked recovers from a writeFault by rewriting the whole
// active segment from memory: truncate to zero, re-encode every
// acknowledged record the segment covers, flush and fsync. Memory is
// the source of truth — an acknowledged record is always in the store,
// a rejected one never is — so the rewrite can neither duplicate nor
// lose records regardless of what the failed write left on disk. The
// rewrite needs the fault gone (e.g. space freed); until then it fails
// and the flag stays set, with reads unaffected. No-op when healthy.
// Caller holds the write lock.
func (r *Repository) repairActiveLocked() error {
	if !r.writeFault {
		return nil
	}
	if r.active == nil {
		r.writeFault = false
		return nil
	}
	fail := func(err error) error {
		return fmt.Errorf("metadata: active segment still faulted: %w", err)
	}
	if err := r.active.Truncate(0); err != nil {
		return fail(err)
	}
	if _, err := r.active.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	r.activeBuf.Reset(r.active) // clears the sticky bufio error
	act := &r.segs[len(r.segs)-1]
	var size int64
	for pos := act.first; pos < r.store.n; pos++ {
		r.encBuf = appendRecord(r.encBuf[:0], *r.store.at(pos))
		if _, err := r.activeBuf.Write(r.encBuf); err != nil {
			return fail(err)
		}
		size += int64(len(r.encBuf))
	}
	if err := r.activeBuf.Flush(); err != nil {
		return fail(err)
	}
	if err := r.active.Sync(); err != nil {
		return fail(err)
	}
	r.activeBytes = size
	act.bytes = size
	act.count = r.store.n - act.first
	r.writeFault = false
	r.recovered("rewrote active segment %s after write fault (%d records)", act.name, act.count)
	return nil
}

// AppendBatch appends many records under a single write-lock
// acquisition, then flushes once. Validation runs before the lock is
// taken, so a malformed record rejects the whole batch before anything
// is written. An I/O failure mid-batch behaves like the equivalent
// sequence of Appends: records appended before the failure remain
// appended (and a torn on-disk tail is truncated on reopen, the store's
// standard recovery contract).
func (r *Repository) AppendBatch(recs []Record) error {
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			return fmt.Errorf("metadata: batch record %d: %w", i, err)
		}
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if r.opts.readOnly {
		r.mu.Unlock()
		return ErrReadOnly
	}
	for i := range recs {
		if _, err := r.appendLocked(recs[i]); err != nil {
			r.wakeTailsLocked()
			r.mu.Unlock()
			return fmt.Errorf("metadata: batch record %d: %w", i, err)
		}
	}
	r.wakeTailsLocked()
	err := r.flushLocked(r.opts.sync == SyncAlways)
	r.mu.Unlock()
	return err
}

// flushLocked pushes buffered writes to the OS, fsyncing too when
// fsync is set. Caller holds the write lock.
func (r *Repository) flushLocked(fsync bool) error {
	if r.activeBuf == nil {
		return nil
	}
	if err := r.activeBuf.Flush(); err != nil {
		r.writeFault = true
		return fmt.Errorf("metadata: flushing segment: %w", err)
	}
	if fsync {
		if err := r.active.Sync(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages; treat the on-disk suffix as unknown and rewrite.
			r.writeFault = true
			return fmt.Errorf("metadata: syncing segment: %w", err)
		}
	}
	return nil
}

// Flush forces buffered log writes to the OS.
func (r *Repository) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	return r.flushLocked(false)
}

// Sync flushes and fsyncs the active segment.
func (r *Repository) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.active == nil {
		return nil
	}
	if err := r.retryDirSyncLocked(); err != nil {
		return err
	}
	if err := r.repairActiveLocked(); err != nil {
		return err
	}
	return r.flushLocked(true)
}

// Close flushes and closes the repository, releasing the directory
// lease.
func (r *Repository) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.wakeTailsLocked()
	var err error
	if r.activeBuf != nil {
		err = r.flushLocked(r.opts.sync != SyncNone)
	}
	if r.active != nil {
		if cerr := r.active.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("metadata: closing segment: %w", cerr)
		}
	}
	if uerr := unlockDir(r.lockFile); err == nil && uerr != nil {
		err = fmt.Errorf("metadata: releasing lock: %w", uerr)
	}
	r.lockFile = nil
	return err
}

// Dir returns the repository's directory, or "" for in-memory
// repositories. The directory is leased exclusively while the
// repository is open, so callers planning a second Open on it must
// route elsewhere (or close this handle first).
func (r *Repository) Dir() string { return r.dir }

// Len returns the number of stored records.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store.n
}

// Get returns a record by ID.
func (r *Repository) Get(id uint64) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// IDs ascend with position but need not be dense; binary search.
	i := sort.Search(r.store.n, func(i int) bool { return r.store.at(i).ID >= id })
	if i < r.store.n && r.store.at(i).ID == id {
		return *r.store.at(i), true
	}
	return Record{}, false
}

// SegmentStat describes one on-disk segment for Stats.
type SegmentStat struct {
	// Name is the segment's file name within the repository directory.
	Name string
	// Records is the number of records the segment holds.
	Records int
	// Bytes is the segment's encoded size.
	Bytes int64
	// Sealed reports whether the segment is immutable (fsynced, only
	// the last, active segment accepts appends).
	Sealed bool
	// Quarantined reports a sealed segment isolated by WithQuarantine;
	// Records/Bytes then repeat the manifest's claims for a file whose
	// records are not in memory (see Health for the gap it leaves).
	Quarantined bool
	// Skipped reports a sealed segment excluded wholesale by
	// WithOpenFilter: its statistics proved no record could match, so it
	// was never decoded (Records/Bytes repeat the manifest's counts).
	Skipped bool
	// HasStats reports a verified statistics sidecar; the zone-map
	// fields below are meaningful only when it is set and Records > 0.
	HasStats bool
	// MinFrame/MaxFrame bound the segment's Frame values (−1 =
	// time-invariant records); MinTime/MaxTime bound its timestamps.
	MinFrame, MaxFrame int
	MinTime, MaxTime   time.Duration
}

// Stats reports repository storage statistics. Segments is nil for
// in-memory repositories.
type Stats struct {
	// Records is the total record count.
	Records int
	// Segments lists on-disk segments in manifest (append) order.
	Segments []SegmentStat
	// DiskBytes sums the encoded size of every segment.
	DiskBytes int64
	// Quarantined counts segments isolated by WithQuarantine.
	Quarantined int
	// SkippedSegments counts sealed segments WithOpenFilter excluded at
	// open (never decoded; their records are absent from Records).
	SkippedSegments int
}

// Stats returns storage statistics for the repository.
func (r *Repository) Stats() (Stats, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return Stats{}, ErrClosed
	}
	st := Stats{Records: r.store.n}
	for _, s := range r.segs {
		seg := SegmentStat{
			Name: s.name, Records: s.count, Bytes: s.bytes,
			Sealed: s.sealed, Quarantined: s.quarantined, Skipped: s.skipped,
		}
		if s.stats != nil {
			seg.HasStats = true
			if s.stats.count > 0 {
				seg.MinFrame = int(s.stats.minFrame)
				seg.MaxFrame = int(s.stats.maxFrame)
				seg.MinTime = time.Duration(s.stats.minTime)
				seg.MaxTime = time.Duration(s.stats.maxTime)
			}
		}
		st.Segments = append(st.Segments, seg)
		st.DiskBytes += s.bytes
		if s.quarantined {
			st.Quarantined++
		}
		if s.skipped {
			st.SkippedSegments++
		}
	}
	return st, nil
}

// Query parses and executes a query on the planner, returning matching
// records in frame order (time-invariant records first). Results are
// byte-identical to NaiveQueryExpr's.
func (r *Repository) Query(q string) ([]Record, error) {
	expr, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return r.QueryExpr(expr)
}

// QueryExpr executes a parsed expression through the planner and
// collects the full result set in frame order.
func (r *Repository) QueryExpr(expr Expr) ([]Record, error) {
	it, err := r.QueryExprIter(expr, QueryOpts{})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return it.Collect()
}

// QueryIter parses q and returns a streaming cursor over the planned
// execution (see QueryOpts for limit, order and projection).
func (r *Repository) QueryIter(q string, opts QueryOpts) (*Iter, error) {
	expr, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return r.QueryExprIter(expr, opts)
}

// QueryExprIter plans expr against the current snapshot and returns a
// streaming cursor. Planning happens under the read lock; execution runs
// lock-free over the immutable snapshot, so the cursor may be consumed
// at leisure while appends and compaction proceed concurrently.
func (r *Repository) QueryExprIter(expr Expr, opts QueryOpts) (*Iter, error) {
	mask, err := projMaskOf(opts.Project)
	if err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, ErrClosed
	}
	p := r.planLocked(expr, opts.Order)
	r.mu.RUnlock()
	return newIter(p, opts, mask), nil
}

// NaiveQueryExpr is the reference interpreter: a sequential full scan
// evaluating expr on every record, sorted like QueryExpr. It is the
// oracle the planner is tested against (equivalence suite, benchmarks);
// planned execution must return byte-identical results.
func (r *Repository) NaiveQueryExpr(expr Expr) ([]Record, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	var out []Record
	for i := 0; i < r.store.n; i++ {
		rec := *r.store.at(i)
		ok, err := expr.Eval(rec)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := out[i].Frame, out[j].Frame
		if fi != fj {
			return fi < fj
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Scan iterates all records in append order, stopping when fn returns
// false. The callback must not call back into the repository. Returns
// ErrClosed on a closed repository.
func (r *Repository) Scan(fn func(Record) bool) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	for i := 0; i < r.store.n; i++ {
		if !fn(*r.store.at(i)) {
			return nil
		}
	}
	return nil
}

// Compact merges the sealed segments into one, reclaiming garbage and
// per-segment overhead. The merge is incremental and mostly unlocked:
// the repository write lock is held only to seal the current active
// segment (brief) and to swap the manifest at cutover (brief) — the
// segment rewrite itself runs against an immutable snapshot while
// appends and query cursors proceed concurrently. Concurrent Compact
// calls serialise. In-memory repositories are a no-op.
func (r *Repository) Compact() error {
	r.compactMu.Lock()
	defer r.compactMu.Unlock()

	// Phase 1 (write lock, brief): roll the active segment if it holds
	// records, so everything current becomes sealed and mergeable, and
	// snapshot the sealed prefix.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if r.opts.readOnly {
		r.mu.Unlock()
		return ErrReadOnly
	}
	for _, s := range r.segs {
		if s.quarantined {
			// Merging would fold the quarantined segment's gap into one
			// clean-looking segment and delete the damaged file — the
			// only copy of whatever a repair tool might still salvage.
			r.mu.Unlock()
			return fmt.Errorf("metadata: %s is quarantined: %w", s.name, ErrQuarantined)
		}
	}
	if r.active == nil {
		r.mu.Unlock()
		return nil
	}
	if len(r.segs) == 1 {
		// Only the active segment exists — there is nothing sealed to
		// merge it with; rolling here would just grow the layout by an
		// empty segment.
		r.mu.Unlock()
		return nil
	}
	if r.segs[len(r.segs)-1].count > 0 {
		if err := r.rollLocked(); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	nSealed := len(r.segs) - 1
	view := r.store.snapshot()
	mergeCount := 0 // records covered by the sealed prefix
	if nSealed > 0 {
		last := r.segs[nSealed-1]
		mergeCount = last.first + last.count
	}
	sealedMeta := append([]segMeta(nil), r.segs[:nSealed]...)
	mergeID := r.nextSegID
	dir := r.dir
	if nSealed > 1 {
		r.nextSegID++ // reserve the merged segment's number
	}
	r.mu.Unlock()
	if nSealed <= 1 {
		return nil // nothing to merge
	}

	// Validate every sealed segment's statistics block against the
	// records it decoded to before folding them into one segment: a
	// divergence means either the sidecar or the segment is lying, and
	// compaction must not launder that into a clean-looking merged
	// segment. The rebuild is deterministic, so a byte-compare of the
	// encodings is exact.
	for i := range sealedMeta {
		sm := sealedMeta[i]
		if sm.stats == nil {
			continue
		}
		end := mergeCount
		if i+1 < len(sealedMeta) {
			end = sealedMeta[i+1].first
		}
		rebuilt := statsOfSnap(view, sm.first, end)
		if !bytes.Equal(encodeStats(rebuilt), encodeStats(sm.stats)) {
			return fmt.Errorf("metadata: segment %s statistics diverge from decoded contents: %w", sm.name, ErrCorrupt)
		}
	}

	// Phase 2 (no lock): write the merged segment from the snapshot.
	// Sealed records are immutable, so the snapshot prefix re-encodes
	// byte-identically to the original entries. The merged segment's
	// statistics sidecar is written (and fsynced) alongside, under its
	// final name — harmless and unreferenced until the manifest binds
	// its CRC at cutover.
	mergedName := segFileName(mergeID)
	tmp := filepath.Join(dir, mergedName+".tmp")
	mergedBytes, err := writeSegmentFile(r.fsys, tmp, view, mergeCount)
	if err != nil {
		r.fsys.Remove(tmp)
		return err
	}
	mergedStats := statsOfSnap(view, 0, mergeCount)
	mergedStatsData := encodeStats(mergedStats)
	mergedStatsPath := filepath.Join(dir, statsFileName(mergedName))
	if err := writeStatsFile(r.fsys, dir, mergedName, mergedStatsData); err != nil {
		r.fsys.Remove(tmp)
		return err
	}

	// Phase 3 (write lock, brief): cutover. Rename the merged segment
	// into place, fsync the directory, swap the manifest, fsync again.
	// The active segment's handle is never touched: any failure here
	// leaves the repository exactly as it was, still appending.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.fsys.Remove(tmp)
		r.fsys.Remove(mergedStatsPath)
		return ErrClosed
	}
	old := make([]string, 0, 2*nSealed)
	for i := 0; i < nSealed; i++ {
		old = append(old, r.segs[i].name)
		if r.segs[i].hasStats {
			old = append(old, statsFileName(r.segs[i].name))
		}
	}
	if err := r.fsys.Rename(tmp, filepath.Join(dir, mergedName)); err != nil {
		r.mu.Unlock()
		r.fsys.Remove(tmp)
		r.fsys.Remove(mergedStatsPath)
		return fmt.Errorf("metadata: installing merged segment: %w", err)
	}
	if err := syncDir(r.fsys, dir); err != nil {
		r.mu.Unlock()
		r.fsys.Remove(filepath.Join(dir, mergedName))
		r.fsys.Remove(mergedStatsPath)
		return err
	}
	segs := make([]segMeta, 0, len(r.segs)-nSealed+1)
	segs = append(segs, segMeta{
		name: mergedName, bytes: mergedBytes, count: mergeCount, sealed: true,
		hasStats: true, statsCRC: statsCRCOf(mergedStatsData), stats: mergedStats,
	})
	segs = append(segs, r.segs[nSealed:]...)
	installed, err := writeManifest(r.fsys, dir, segs)
	if err != nil && !installed {
		// Old manifest still reigns; the merged file and its sidecar are
		// orphans (also cleaned at next Open if these removes fail).
		r.mu.Unlock()
		r.fsys.Remove(filepath.Join(dir, mergedName))
		r.fsys.Remove(mergedStatsPath)
		return err
	}
	r.segs = segs
	if err != nil {
		// The rename landed, so the new manifest governs and memory
		// committed to it — but its directory fsync failed, so a crash
		// could still revert to the old manifest. Keep the replaced
		// segment files in place (a revert needs them; a later
		// successful swap or the next Open's orphan sweep removes
		// them), make appends retry the fsync before acknowledging
		// anything more, and surface the durability error.
		r.pendingDirSync = true
		r.mu.Unlock()
		return fmt.Errorf("metadata: compaction cutover not durable: %w", err)
	}
	r.mu.Unlock()

	// The old segments are no longer referenced; remove them outside
	// the lock (failures are harmless — Open removes orphans).
	for _, name := range old {
		r.fsys.Remove(filepath.Join(dir, name))
	}
	return nil
}

// writeSegmentFile encodes the first n snapshot records into path,
// flushed and fsynced before returning its size. The fsync is
// unconditional — whatever the repository's sync policy, the cutover
// deletes the originals, so the merged segment must be durable before
// the manifest can reference it.
func writeSegmentFile(fsys vfs.FS, path string, s snap, n int) (int64, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("metadata: creating merged segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var size int64
	buf := make([]byte, 0, 4096)
	for i := 0; i < n; i++ {
		buf = appendRecord(buf[:0], *s.at(i))
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return 0, fmt.Errorf("metadata: writing merged segment: %w", err)
		}
		size += int64(len(buf))
	}
	err = w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("metadata: finishing merged segment: %w", err)
	}
	return size, nil
}

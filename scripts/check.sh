#!/usr/bin/env sh
# check.sh — the one-command repo gate.
#
#   scripts/check.sh         vet + build + short-mode tests (fast)
#   scripts/check.sh -full   vet + build + full tier-1 test suite
#
# Both modes additionally run the metadata engine under the race
# detector (concurrent AppendBatch/QueryIter/Compact stress plus the
# compact-under-load oracle check), the torn-write recovery matrix,
# the injected-fault crash-consistency matrix (including the segment-
# statistics sidecar matrix), the statistics-pruning soundness gates
# (cold-open pushdown ≡ full-replay oracle, raced), the degraded-mode
# gate (quarantine under raced load), the streaming gates (finite-stream ≡ batch oracle raced on the worker
# pool, tail cursors surviving segment roll + compaction under raced
# append load and a stalled consumer across 100k appends, the
# live-FOLLOW exactly-once contract, and the bounded-memory check on a
# 24k-frame cycled stream), the dieventd service gates (the drain
# contract under active ingest, ENOSPC degradation instead of wedging,
# a slow HTTP follower receiving the complete stream, and the mixed
# connection soak with every follower complete — scaled down under -short; the full
# ≥200-client / 1M-record shape in -full — all raced), an end-to-end
# server smoke (build the real dieventd binary, drive concurrent
# ingest+query+FOLLOW, SIGTERM it, require drain within its deadline
# and a clean offline fsck), the lease-takeover race 2000 times over,
# the replay-equivalence property raced, the range-index property and
# the executor equivalence suite raced, a short fuzz smoke of the
# query parser, of the three on-disk formats (segment decoder against
# its oracle, MANIFEST, statistics sidecar) and of the service wire
# codec (record encoder, batch and envelope decoders against
# encoding/json) so the checked-in corpora execute on every check, the
# img/face suites and the stage-graph oracle on the generic (purego)
# build, a 32-bit (GOARCH=386) vet of the whole tree plus the short
# test suites of every package that holds on 32 bits, and the benchmark
# module's own tests. The
# quick mode also races the emotion network's batch-of-one equivalence
# and shared-scratch gates. Before the gates, both modes confirm that
# every -run pattern below still names existing tests and run the
# reachability probe (scripts/reach), which fails on any function only
# tests can reach, field only tests set, or type, constant or variable
# only tests name, unless its allowlist gives a reason, and on any
# difference between dievent/api.txt and the public API. Every go
# command prints its wall time to stderr as it ends.
set -eu
cd "$(dirname "$0")/.."

START="$(date +%s)"
# go runs the toolchain and reports how long the step took.
go() {
	T0="$(date +%s)"
	RC=0
	command go "$@" || RC=$?
	echo "check.sh: $(($(date +%s) - T0))s: go $*" >&2
	return $RC
}

# Formatting gate: the tree must be gofmt-clean.
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

go vet ./...
go build ./...

# Every |-separated name in every -run pattern below must match a test
# that `go test -list` shows for that step's packages (and build tags):
# `go test -run` passes silently when a pattern matches nothing, so a
# renamed or deleted test would otherwise drop its gate unnoticed.
LISTS="$(mktemp -d)"
trap 'rm -rf "$LISTS"' EXIT
grep -E "^[[:space:]]*(GOARCH=[a-z0-9]+ )?go test .*-run '[^']*[A-Za-z]" scripts/check.sh |
	while IFS= read -r STEP; do
		PATTERN="$(printf '%s\n' "$STEP" | sed -E "s/.*-run '([^']*)'.*/\1/")"
		TAGS="$(printf '%s\n' "$STEP" | grep -oE -- '-tags [a-z]+' || true)"
		PKGS="$(printf '%s\n' "$STEP" | grep -oE '\./[^ ]+' | tr '\n' ' ')"
		LIST="$LISTS/$(printf '%s %s' "$TAGS" "$PKGS" | tr -c 'A-Za-z0-9' '_')"
		[ -f "$LIST" ] || go test $TAGS -list '.*' $PKGS >"$LIST"
		for NAME in $(printf '%s\n' "$PATTERN" | tr '|' ' '); do
			if ! grep -qE "$NAME" "$LIST"; then
				echo "check.sh: -run '$PATTERN' names $NAME, which matches no test in $PKGS" >&2
				exit 1
			fi
		done
	done

# Reachability: nothing that only tests use, beyond the reasoned
# allowlist in scripts/reach/allow.txt (which must itself stay exact),
# and a public API equal to dievent/api.txt.
go run ./scripts/reach

if [ "${1:-}" = "-full" ]; then
	# The full (non-short) suites already include the torn-write
	# recovery matrix, the raced compact-under-load stress, and the
	# full-shape service soak (≥200 concurrent clients over 1M records).
	go test ./...
	go test -race ./internal/metadata ./internal/core ./internal/face \
		./internal/service
else
	# The heavy durability tests skip under -short; run them once,
	# explicitly, so every quick check still exercises them.
	go test -short ./...
	# The whole metadata suite raced. That includes the range-index
	# contract after every insert of generated interleavings
	# (TestRangeIndexProperty, TestRangeIndexStragglerStaysAlone), the
	# run-wise executor against the naive interpreter over every kind of
	# run list, early Close and cancellation included
	# (TestExecutorEquivalence), and the fast-path assertions on the
	# benchmark-shaped store (TestShapedQueriesStayLazy).
	go test -race -short ./internal/metadata
	# Crash-recovery matrix: every torn-final-write offset must reopen
	# to exactly the valid prefix.
	go test -run 'TestTornWriteRecoveryMatrix' ./internal/metadata
	# Crash-consistency matrix: every injected fault point during
	# append/roll/seal/manifest-swap/compact, crashed (with torn tails)
	# and reopened, must preserve the acknowledged prefix; transient
	# faults must surface the error and keep the store usable.
	go test -run 'TestCrashConsistencyMatrix|TestTransientFaultMatrix' ./internal/metadata
	# Statistics crash matrix: a crash at any counted op (sidecar writes
	# included) must leave a store that a writable reopen repairs to a
	# clean fsck, with cold-open pushdown matching the full-replay oracle.
	go test -run 'TestStatsCrashMatrix' ./internal/metadata
	# Pruning-soundness gate, raced: statistics pushdown and plan-time
	# segment pruning must stay byte-identical to the naive oracle.
	go test -race -run 'TestColdOpenEquivalenceProperty|TestPlanStatsPruning' ./internal/metadata
	# Degraded-mode gate, raced: quarantined segments served under
	# concurrent load.
	go test -race -run 'TestQuarantineUnderConcurrentLoad' ./internal/metadata
	# Compaction under load, raced: appends/cursors while segments merge.
	go test -race -run 'TestStressConcurrentAppendQueryCompact|TestCompactUnderLoadMatchesOracle' ./internal/metadata
	# Concurrent detection, raced: the fused matcher's thread-safety
	# gate (one shared detector hit from many goroutines), plus the
	# cascade-equivalence gate — fused multi-tier detection must stay
	# byte-identical to the exhaustive detectOracle on scenario frames
	# and synthetic edge cases.
	go test -race -run 'TestDetectConcurrentSharedDetector|TestDetectMatchesOracle' ./internal/face
	# Never-wrong-skip contracts for every reject tier (pyramid bound,
	# full cascade, flat-cell skip) and exactness of the SIMD dot kernel
	# and pyramid block sums.
	go test -run 'TestScoreCascadeSkipContract|TestPyrBoundNeverBelowNumerator|TestDotRowMatchesGeneric|TestBuildPyramidMatchesNaive' ./internal/img
	go test -run 'TestCellSkipContract' ./internal/face
	# One forward pass, raced: the batched entry points must match their
	# single-sample (batch-of-one) forms bit for bit, and one shared
	# classifier/network must stay exact under concurrent callers.
	go test -race -run 'TestClassifyBatchMatchesClassify|TestSharedClassifierConcurrentBatch|TestPredictBatchMatchesPredict|TestNetworkBatchConcurrent' ./internal/emotion ./internal/nn
	go test -run 'TestIdentifyBatchMatchesIdentify' ./internal/face
	# Stage-graph equivalence vs the frozen monolithic oracle, raced
	# with Workers > 1 (the pixel half skips under -short; run the
	# suite explicitly so the geometric half always executes raced),
	# plus the engine's failing-sink goroutine-accounting gate.
	go test -race -run 'TestStageGraphMatchesOracle|TestRunStreamedSinkFailureStopsWorkers|TestIncremental' ./internal/core
	# Streaming gates (DESIGN.md §10), raced: tail cursors must survive
	# active-segment roll and incremental compaction under concurrent
	# append load (exactly-once, in order), a cursor stalled across 100k
	# appends must still get every match, query iterators must release
	# their workers on Close/cancel, and the grammar must accept FOLLOW.
	go test -race -run 'TestTailCursor|TestTailMany|TestIterCloseReleasesWorkers|TestQueryCtxCancel|TestParseFollowGrammar' ./internal/metadata
	# Finite-stream oracle identity on the worker pool plus the live
	# follower's exactly-once view while ingest and flushes race it.
	go test -race -run 'TestRunStreamMatchesRun|TestStreamFollowExactlyOnceDuringIngest|TestRunStreamCancelGraceful' ./internal/core
	# Bounded-memory gate: a 24k-frame cycled Bounded stream must hold
	# heap flat between the 8k- and 24k-frame probes (skips under
	# -short, so run it explicitly).
	go test -run 'TestStreamBoundedMemory' ./internal/core
	# Service gates (DESIGN.md §11), raced: the tail-cursor terminal
	# contracts dieventd is built on (read-only sentinel, Close/Err
	# consistency, the Kill drain — also for a consumer 100k records
	# behind), then the server itself — graceful drain under active
	# ingest, ENOSPC degrading a tenant to read-only instead of wedging
	# it, a slow follower receiving the complete stream, and the
	# scaled-down mixed soak.
	go test -race -run 'TestTailReadOnlyEndsWithSentinel|TestTailCloseContract|TestTailKillDrainContract|TestTailKillDrainsFarBehind' ./internal/metadata
	go test -race -run 'TestDrainGraceful|TestENOSPCDegradesNotWedges|TestFollowSlowConsumerComplete|TestIdleCloseReadOnlyCoexistence' ./internal/service
	go test -race -short -run 'TestServiceSoak' ./internal/service
	# End-to-end server smoke: build the real dieventd binary, run
	# concurrent ingest+query+FOLLOW against it, SIGTERM mid-traffic,
	# and require drain-within-deadline, exit 0, and a clean offline
	# fsck of every tenant store.
	go test -run 'TestDieventdEndToEnd' ./internal/service
fi
# Lease takeover (DESIGN.md §8): eight contenders over one stale lease,
# exactly one winner, 2000 times under the race detector (≈ 20 s), plus
# the deterministic interleavings of the two-writers bug it replaced.
go test -race -run 'TestLeaseTakeoverSingleWinner' -count=2000 ./internal/metadata
go test -race -run 'TestLeaseTakeoverInterleaved' ./internal/metadata
# Replay equivalence (DESIGN.md §5), raced: every kind of open — bulk
# copy plus the two-goroutine tally-then-fill index build — equals the
# record-at-a-time reference; a full open allocates per segment, not per
# record.
go test -race -run 'TestReplayEquivalenceProperty|TestReplayAllocationFree' ./internal/metadata
# Query grammar and the three on-disk formats (segment entries against
# the readRecord oracle, MANIFEST, statistics sidecar): each fuzzer runs
# its checked-in corpus and 5 s of new inputs.
for FUZZ in FuzzParseQuery FuzzSegmentDecode FuzzParseManifest FuzzDecodeStats; do
	go test -run '^$' -fuzz "^$FUZZ\$" -fuzztime 5s ./internal/metadata
done
# Wire codec (DESIGN.md §11): encoder byte-identical to encoding/json,
# decoder equal to it or declining, on fuzzed records, bodies and lines.
for FUZZ in FuzzRecordJSON FuzzDecodeBatch FuzzDecodeEnvelope; do
	go test -run '^$' -fuzz "^$FUZZ\$" -fuzztime 5s ./internal/service
done
# Generic-build coverage: the detector-vs-oracle and skip-contract
# suites and the stage-graph equivalence (pixel and geometric) on the
# portable dot kernel (the purego tag selects it on amd64), and a
# cross-vet so the non-amd64 build keeps compiling.
go test -tags purego ./internal/img ./internal/face
go test -tags purego -run 'TestStageGraphMatchesOracle' ./internal/core
(export GOARCH=arm64 && go vet ./internal/img ./internal/face)
# 32-bit build: everything (tests included) compiles, and the short
# suites pass — among them the refusals of a stored frame, count or
# length that does not fit a 32-bit int (TestDecodeRefusesFrameBeyondInt,
# TestDecodeStatsRefusesCountBeyondInt,
# TestDecodeEntriesRefusesLengthBeyondInt, and the statistics fuzzer's
# seed corpus with lengths and counts of 2^31 and up). core and emotion
# stay out until their classifier-fingerprint goldens hold on 32 bits
# (ROADMAP item 9); parsing passes there but takes ≈170 s (item 13).
(export GOARCH=386 && go vet ./... &&
	go test -short $(command go list ./... | grep -v -e '/internal/parsing$' -e '/internal/core$' -e '/internal/emotion$'))
# The end-to-end benchmark's own guards and smoke run (its nested
# module is outside the root `go test ./...`). Performance itself is
# measured by `sh benchmark/run.sh`, not gated here.
(cd benchmark && go test ./...)
echo "check.sh: OK in $(($(date +%s) - START))s"

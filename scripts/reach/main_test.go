package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixtureCheck runs the probe over testdata/fixture with the given
// allowlist lines.
func fixtureCheck(t *testing.T, allow string) *report {
	t.Helper()
	file := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(file, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := check([]string{"testdata/fixture"}, []string{"fixture/api"}, file)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFixtureDeadAndStale: the planted dead exported function and its
// helper are reported; every kind of root keeps its callees live
// (OnlyPurego only through the purego build, T.Seats through api's
// alias of T); a call through an unnamed interface is skipped, not a
// crash; an allowlisted function keeps its own helper; and allowlist
// entries that are live, reached from another entry, or gone are stale.
// Of Opts' fields, the one only its default sets and the one only a
// test sets are unwritten, the allowlisted one is not reported, and
// the keyed, assigned, addressed, element-assigned, purego-only,
// positional and embedded ones count as set; the type, constant and
// variable only lib_test.go names are test-only. A field or object
// entry for something main sets or names, or for nothing, is stale.
func TestFixtureDeadAndStale(t *testing.T) {
	rep := fixtureCheck(t, `
fixture/lib.Kept         # kept on purpose
fixture/lib.Used         # stale: main calls it
fixture/lib.T.Seats      # stale: api aliases T
fixture/lib.keptHelper   # stale: Kept reaches it
fixture/lib.Gone         # stale: no such function
fixture/lib.Opts.Allowed # kept on purpose
fixture/lib.Opts.Keyed   # stale: main sets it
fixture/lib.Opts.Gone    # stale: no such field
fixture/lib.NamedVar     # stale: main names it
`)
	wantDead := []string{
		"fixture/lib.Dead",
		"fixture/lib.T.idle",
		"fixture/lib.deadHelper",
	}
	if !reflect.DeepEqual(rep.Dead, wantDead) {
		t.Errorf("dead = %v, want %v", rep.Dead, wantDead)
	}
	wantStale := []string{
		"fixture/lib.Gone",
		"fixture/lib.NamedVar",
		"fixture/lib.Opts.Gone",
		"fixture/lib.Opts.Keyed",
		"fixture/lib.T.Seats",
		"fixture/lib.Used",
		"fixture/lib.keptHelper",
	}
	if !reflect.DeepEqual(rep.Stale, wantStale) {
		t.Errorf("stale = %v, want %v", rep.Stale, wantStale)
	}
	wantUnwritten := []string{"fixture/lib.Opts.Defaulted", "fixture/lib.Opts.Unwritten"}
	if !reflect.DeepEqual(rep.Unwritten, wantUnwritten) {
		t.Errorf("unwritten = %v, want %v", rep.Unwritten, wantUnwritten)
	}
	wantTestOnly := []string{"fixture/lib.TestOnly", "fixture/lib.TestOnlyConst", "fixture/lib.TestOnlyVar"}
	if !reflect.DeepEqual(rep.TestOnly, wantTestOnly) {
		t.Errorf("test-only = %v, want %v", rep.TestOnly, wantTestOnly)
	}
}

// TestFixtureClean: with every finding allowlisted the probe reports
// nothing.
func TestFixtureClean(t *testing.T) {
	rep := fixtureCheck(t, `
fixture/lib.Kept           # kept on purpose
fixture/lib.Dead           # kept on purpose
fixture/lib.T.idle         # kept on purpose
fixture/lib.Opts.Allowed   # kept on purpose
fixture/lib.Opts.Defaulted # kept on purpose
fixture/lib.Opts.Unwritten # kept on purpose
fixture/lib.TestOnly       # kept on purpose
fixture/lib.TestOnlyConst  # kept on purpose
fixture/lib.TestOnlyVar    # kept on purpose
`)
	if len(rep.Dead)+len(rep.Unwritten)+len(rep.TestOnly)+len(rep.Stale) != 0 {
		t.Errorf("dead = %v, unwritten = %v, test-only = %v, stale = %v, want none",
			rep.Dead, rep.Unwritten, rep.TestOnly, rep.Stale)
	}
}

// TestFixtureAPI: the API listing holds api's own names and, through
// its alias of T, T's exported methods, with parameter names left out.
func TestFixtureAPI(t *testing.T) {
	want := []string{
		"pkg fixture/api, func Public() int",
		"pkg fixture/api, type T = lib.T",
		"pkg fixture/lib, method (T) Seats() int",
		"pkg fixture/lib, method (T) String() string",
		"pkg fixture/lib, type T struct",
	}
	if got := fixtureCheck(t, "").API; !reflect.DeepEqual(got, want) {
		t.Errorf("API =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestReadAllowRejectsMissingReason(t *testing.T) {
	file := filepath.Join(t.TempDir(), "allow.txt")
	for _, body := range []string{"fixture/lib.Dead\n", "fixture/lib.Dead #\n", "a.F # x\na.F # y\n"} {
		if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllow(file); err == nil {
			t.Errorf("allowlist %q accepted", body)
		}
	}
}

package main

import (
	"os"
	"path/filepath"
	"reflect"
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
func TestFixtureDeadAndStale(t *testing.T) {
	rep := fixtureCheck(t, `
fixture/lib.Kept         # kept on purpose
fixture/lib.Used         # stale: main calls it
fixture/lib.T.Seats      # stale: api aliases T
fixture/lib.keptHelper   # stale: Kept reaches it
fixture/lib.Gone         # stale: no such function
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
		"fixture/lib.T.Seats",
		"fixture/lib.Used",
		"fixture/lib.keptHelper",
	}
	if !reflect.DeepEqual(rep.Stale, wantStale) {
		t.Errorf("stale = %v, want %v", rep.Stale, wantStale)
	}
}

// TestFixtureClean: with the dead functions allowlisted the probe
// reports nothing.
func TestFixtureClean(t *testing.T) {
	rep := fixtureCheck(t, `
fixture/lib.Kept         # kept on purpose
fixture/lib.Dead         # kept on purpose
fixture/lib.T.idle       # kept on purpose
`)
	if len(rep.Dead) != 0 || len(rep.Stale) != 0 {
		t.Errorf("dead = %v, stale = %v, want none", rep.Dead, rep.Stale)
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

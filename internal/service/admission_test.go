package service

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTokenBucket pins the refill/refusal arithmetic.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(10, 5) // 10 tokens/s, burst 5
	now := time.Unix(1000, 0)
	if ok, _ := b.take(5, now); !ok {
		t.Fatal("burst refused")
	}
	ok, wait := b.take(1, now)
	if ok {
		t.Fatal("empty bucket granted")
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("wait = %v, want ~100ms for 1 token at 10/s", wait)
	}
	// After the advertised wait, the token is there.
	if ok, _ := b.take(1, now.Add(wait)); !ok {
		t.Fatal("token absent after advertised wait")
	}
	// Refill caps at burst.
	if ok, _ := b.take(5, now.Add(time.Hour)); !ok {
		t.Fatal("burst absent after long idle")
	}
	if ok, _ := b.take(1, now.Add(time.Hour)); ok {
		t.Fatal("bucket exceeded burst cap")
	}
}

// TestAdmission pins the bounded in-flight gate.
func TestAdmission(t *testing.T) {
	s, err := New(Config{Root: t.TempDir(), MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.admit() || !s.admit() {
		t.Fatal("slots refused below the bound")
	}
	if s.admit() {
		t.Fatal("admitted past MaxInflight")
	}
	s.unadmit()
	if !s.admit() {
		t.Fatal("slot not returned")
	}
}

// TestTenantNameValidation: names are path components; anything that
// could traverse is refused.
func TestTenantNameValidation(t *testing.T) {
	s, err := New(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "..", "a/b", "a\\b", ".hidden", "UPPER", strings.Repeat("a", 65)} {
		if _, err := s.tenant(bad); !errors.Is(err, errBadTenant) {
			t.Fatalf("tenant(%q) = %v, want errBadTenant", bad, err)
		}
	}
	for _, good := range []string{"a", "rig-07", "cam_3", "0abc"} {
		if _, err := s.tenant(good); err != nil {
			t.Fatalf("tenant(%q) = %v", good, err)
		}
	}
}

package camera

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
)

func TestNewRigValidation(t *testing.T) {
	c := testCam()
	if _, err := NewRig(0, c); err == nil {
		t.Error("zero fps should fail")
	}
	if _, err := NewRig(25); err == nil {
		t.Error("empty rig should fail")
	}
	dup := testCam()
	if _, err := NewRig(25, c, dup); err == nil {
		t.Error("duplicate names should fail")
	}
	bad := testCam()
	bad.Name = WorldFrame
	if _, err := NewRig(25, bad); err == nil {
		t.Error("camera named 'world' should fail")
	}
}

// TestRigCameraLookup: a rig resolves each camera by name in its frame
// graph and refuses a name it does not hold.
func TestRigCameraLookup(t *testing.T) {
	r, err := PaperRig(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cameras {
		tr, err := r.Transform(WorldFrame, c.Name)
		if err != nil {
			t.Fatalf("%s lookup: %v", c.Name, err)
		}
		if p := tr.ApplyPoint(geom.V3(0, 0, 0)); !p.ApproxEq(c.Pose.Position, 1e-9) {
			t.Errorf("%s origin maps to %v, want the camera position %v", c.Name, p, c.Pose.Position)
		}
	}
	if _, err := r.Transform(WorldFrame, "C9"); !errors.Is(err, geom.ErrNoPath) {
		t.Errorf("unknown lookup error = %v", err)
	}
}

func TestPaperRigGeometry(t *testing.T) {
	// Fig. 2: both cameras at 2.5 m, facing each other, pitched down 15°.
	r, err := PaperRig(4)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := r.Cameras[0], r.Cameras[1]
	if c1.Pose.Position.Z != 2.5 || c2.Pose.Position.Z != 2.5 {
		t.Error("cameras must be at 2.5 m height")
	}
	// Facing each other: forward x-components have opposite signs.
	if c1.Pose.Forward().X <= 0 || c2.Pose.Forward().X >= 0 {
		t.Errorf("cameras not facing each other: %v vs %v",
			c1.Pose.Forward(), c2.Pose.Forward())
	}
	// Pitched down 15°: forward Z component = −sin(15°).
	wantZ := -math.Sin(geom.Deg2Rad(15))
	if math.Abs(c1.Pose.Forward().Z-wantZ) > 1e-9 {
		t.Errorf("C1 pitch z = %v, want %v", c1.Pose.Forward().Z, wantZ)
	}
	// Both cameras must see a person's head across the table.
	head := geom.V3(0.5, 0, 1.2)
	if !c1.Sees(head) || !c2.Sees(head) {
		t.Error("both paper cameras should see a seated head at the table")
	}
	if _, err := PaperRig(-1); err == nil {
		t.Error("negative separation should fail")
	}
}

func TestPrototypeRigGeometry(t *testing.T) {
	// §III: four cameras on room corners at 2.5 m elevation.
	r, err := PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cameras) != 4 {
		t.Fatalf("prototype rig has %d cameras, want 4", len(r.Cameras))
	}
	for _, c := range r.Cameras {
		if c.Pose.Position.Z != 2.5 {
			t.Errorf("%s at height %v, want 2.5", c.Name, c.Pose.Position.Z)
		}
		// Each camera must see the table centre.
		if !c.Sees(geom.V3(0, 0, 0.75)) {
			t.Errorf("%s does not see the table centre", c.Name)
		}
		// And see seated heads around the table.
		for _, head := range []geom.Vec3{
			{X: 0.9, Y: 0, Z: 1.2}, {X: -0.9, Y: 0, Z: 1.2},
			{X: 0, Y: 0.6, Z: 1.2}, {X: 0, Y: -0.6, Z: 1.2},
		} {
			if !c.Sees(head) {
				t.Errorf("%s does not see head at %v", c.Name, head)
			}
		}
	}
	if _, err := PrototypeRig(0, 5); err == nil {
		t.Error("zero room size should fail")
	}
}

func TestRigTransformChain(t *testing.T) {
	// The rig frame graph must satisfy Eq. 1: a point expressed in C2's
	// frame re-expressed in C1's frame matches direct computation.
	r, _ := PaperRig(4)
	c1, c2 := r.Cameras[0], r.Cameras[1]
	world := geom.V3(0.3, -0.2, 1.1)
	inC2 := c2.WorldToCam().ApplyPoint(world)
	t12, err := r.Transform("C1", "C2") // ¹T₂
	if err != nil {
		t.Fatal(err)
	}
	got := t12.ApplyPoint(inC2)
	want := c1.WorldToCam().ApplyPoint(world)
	if !got.ApproxEq(want, 1e-9) {
		t.Errorf("¹T₂·²p = %v, want %v", got, want)
	}
}

func TestBestView(t *testing.T) {
	r, _ := PrototypeRig(6, 5)
	// A head near camera C1's corner is seen most centrally by the
	// opposite camera C3.
	head := geom.V3(-1.2, -1.0, 1.2)
	best, err := r.BestView(head)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("nil best view")
	}
	// Must at least see it.
	if !best.Sees(head) {
		t.Error("best view does not see the point")
	}
	// No camera sees a point high above the rig: every camera pitches
	// down toward the table.
	if _, err := r.BestView(geom.V3(0, 0, 100)); err == nil {
		t.Error("BestView of invisible point should fail")
	}
}

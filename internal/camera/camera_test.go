package camera

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
)

func testCam() *Camera {
	return &Camera{
		Name: "C1",
		Pose: geom.Pose{Orientation: geom.Identity3()}, // at origin looking along +X
		In:   IntrinsicsFromFOV(640, 480, geom.Deg2Rad(70)),
	}
}

func TestIntrinsicsFOVRoundTrip(t *testing.T) {
	in := IntrinsicsFromFOV(640, 480, geom.Deg2Rad(70))
	// The focal length maps the half-width onto half the field of view.
	if got := geom.Rad2Deg(2 * math.Atan(320/in.Fx)); math.Abs(got-70) > 1e-9 || in.Fy != in.Fx {
		t.Errorf("focal (%v,%v) gives HFOV %v, want 70", in.Fx, in.Fy, got)
	}
	if in.Cx != 320 || in.Cy != 240 {
		t.Errorf("principal point = (%v,%v)", in.Cx, in.Cy)
	}
}

func TestProjectCenter(t *testing.T) {
	c := testCam()
	// A point straight ahead projects to the principal point.
	px, err := c.Project(geom.V3(3, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !px.ApproxEq(geom.V2(320, 240), 1e-9) {
		t.Errorf("centre projection = %v", px)
	}
}

func TestProjectDirections(t *testing.T) {
	c := testCam()
	// Point to the camera's left (+Y) lands left of centre (u < cx).
	left, err := c.Project(geom.V3(3, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if left.X >= 320 {
		t.Errorf("left point projected at u=%v, want < 320", left.X)
	}
	// Point above (+Z) lands above centre (v < cy).
	up, err := c.Project(geom.V3(3, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if up.Y >= 240 {
		t.Errorf("up point projected at v=%v, want < 240", up.Y)
	}
}

func TestProjectBehind(t *testing.T) {
	c := testCam()
	if _, err := c.Project(geom.V3(-1, 0, 0)); !errors.Is(err, ErrBehindCamera) {
		t.Errorf("behind-camera projection error = %v", err)
	}
	if _, err := c.Project(geom.Vec3{}); !errors.Is(err, ErrBehindCamera) {
		t.Error("point at camera centre should be ErrBehindCamera")
	}
}

func TestSeesAndInFrame(t *testing.T) {
	c := testCam()
	if !c.Sees(geom.V3(3, 0, 0)) {
		t.Error("camera should see straight-ahead point")
	}
	if c.Sees(geom.V3(-3, 0, 0)) {
		t.Error("camera should not see behind itself")
	}
	if c.Sees(geom.V3(0.1, 5, 0)) {
		t.Error("extreme off-axis point should be out of frame")
	}
	if !c.InFrame(geom.V2(0, 0)) || c.InFrame(geom.V2(640, 100)) {
		t.Error("InFrame boundary handling wrong")
	}
}

func TestDepthAndProjectedRadius(t *testing.T) {
	c := testCam()
	if d := c.Depth(geom.V3(4, 1, 2)); math.Abs(d-4) > 1e-12 {
		t.Errorf("depth = %v, want 4", d)
	}
	r1 := c.ProjectedRadius(geom.V3(2, 0, 0), 0.12)
	r2 := c.ProjectedRadius(geom.V3(4, 0, 0), 0.12)
	if r1 <= r2 || r2 <= 0 {
		t.Errorf("apparent radius should shrink with depth: %v vs %v", r1, r2)
	}
	if c.ProjectedRadius(geom.V3(-1, 0, 0), 0.12) != 0 {
		t.Error("behind-camera radius should be 0")
	}
}

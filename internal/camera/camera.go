// Package camera models the DiEvent video-acquisition platform (paper
// §II-A, Fig. 2): calibrated pinhole cameras with known extrinsics,
// multi-camera rigs, and frame-time synchronisation.
//
// World frame convention: X/Y span the floor, Z points up, units are
// metres. Camera local frame: +X is the optical axis (forward), +Y is
// left, +Z is up; pixel u grows rightward, v grows downward.
package camera

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Intrinsics holds the pinhole projection parameters of a camera.
type Intrinsics struct {
	// Fx, Fy are focal lengths in pixels.
	Fx, Fy float64
	// Cx, Cy are the principal point in pixels.
	Cx, Cy float64
	// W, H are the sensor resolution in pixels.
	W, H int
}

// ErrBehindCamera is returned when projecting a point at or behind the
// image plane.
var ErrBehindCamera = errors.New("camera: point behind camera")

// IntrinsicsFromFOV builds intrinsics for a w×h sensor with the given
// horizontal field of view (radians). Vertical FOV follows from square
// pixels.
func IntrinsicsFromFOV(w, h int, hfov float64) Intrinsics {
	f := float64(w) / 2 / math.Tan(hfov/2)
	return Intrinsics{
		Fx: f, Fy: f,
		Cx: float64(w) / 2, Cy: float64(h) / 2,
		W: w, H: h,
	}
}

// Camera is a calibrated camera: a name (its reference-frame label in the
// rig's frame graph), a pose in the world frame, and intrinsics.
type Camera struct {
	Name string
	Pose geom.Pose
	In   Intrinsics
}

// WorldToCam returns the transform taking world coordinates into this
// camera's frame (camTworld).
func (c *Camera) WorldToCam() geom.Transform {
	return c.Pose.Transform().Inverse()
}

// CamToWorld returns worldTcam.
func (c *Camera) CamToWorld() geom.Transform {
	return c.Pose.Transform()
}

// Project maps a world point to pixel coordinates. It returns
// ErrBehindCamera when the point is on or behind the image plane; points
// outside the sensor bounds still project (callers use InFrame to test
// visibility) so sub-pixel tracking near borders keeps working.
func (c *Camera) Project(world geom.Vec3) (geom.Vec2, error) {
	p := c.WorldToCam().ApplyPoint(world)
	if p.X <= 1e-9 {
		return geom.Vec2{}, fmt.Errorf("camera %s: depth %.3f: %w", c.Name, p.X, ErrBehindCamera)
	}
	u := c.In.Cx - c.In.Fx*(p.Y/p.X)
	v := c.In.Cy - c.In.Fy*(p.Z/p.X)
	return geom.V2(u, v), nil
}

// Depth returns the forward distance (camera-frame X) of a world point.
func (c *Camera) Depth(world geom.Vec3) float64 {
	return c.WorldToCam().ApplyPoint(world).X
}

// InFrame reports whether the pixel lies inside the sensor bounds.
func (c *Camera) InFrame(px geom.Vec2) bool {
	return px.X >= 0 && px.X < float64(c.In.W) && px.Y >= 0 && px.Y < float64(c.In.H)
}

// Sees reports whether a world point projects inside the frame in front
// of the camera.
func (c *Camera) Sees(world geom.Vec3) bool {
	px, err := c.Project(world)
	return err == nil && c.InFrame(px)
}

// ProjectedRadius returns the apparent pixel radius of a world sphere of
// radius r at the given world centre, or 0 if behind the camera.
func (c *Camera) ProjectedRadius(center geom.Vec3, r float64) float64 {
	d := c.Depth(center)
	if d <= 1e-9 {
		return 0
	}
	return c.In.Fx * r / d
}

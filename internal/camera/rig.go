package camera

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Rig is a synchronised set of calibrated cameras plus the frame graph
// relating their reference frames — the acquisition platform of paper
// §II-A. All cameras in a rig share one shutter clock (FPS), matching the
// paper's "synchronized videos".
type Rig struct {
	Cameras []*Camera
	// FPS is the shared frame rate (paper: 25 fps).
	FPS float64
	// Frames is the graph of camera-to-camera and camera-to-world
	// transforms; frame "world" is always present.
	Frames *geom.FrameGraph
}

// WorldFrame is the name of the shared world reference frame in every
// rig's frame graph.
const WorldFrame = "world"

// ErrUnknownCamera is returned when a rig lookup finds no camera: BestView
// over a point no camera sees.
var ErrUnknownCamera = errors.New("camera: unknown camera")

// NewRig assembles a rig from cameras, registering worldTcam edges for
// each camera in a shared frame graph.
func NewRig(fps float64, cams ...*Camera) (*Rig, error) {
	if fps <= 0 {
		return nil, fmt.Errorf("camera: fps must be positive, got %v", fps)
	}
	if len(cams) == 0 {
		return nil, errors.New("camera: rig needs at least one camera")
	}
	g := geom.NewFrameGraph()
	seen := make(map[string]bool, len(cams))
	for _, c := range cams {
		if c.Name == "" || c.Name == WorldFrame {
			return nil, fmt.Errorf("camera: invalid camera name %q", c.Name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("camera: duplicate camera name %q", c.Name)
		}
		seen[c.Name] = true
		g.Set(WorldFrame, c.Name, c.CamToWorld())
	}
	return &Rig{Cameras: cams, FPS: fps, Frames: g}, nil
}

// BestView returns the camera that sees the world point with the greatest
// margin (most central projection), or an error when no camera sees it.
// This is how multi-camera DiEvent picks the observation to trust for a
// given head.
func (r *Rig) BestView(p geom.Vec3) (*Camera, error) {
	var best *Camera
	bestScore := math.Inf(-1)
	for _, c := range r.Cameras {
		px, err := c.Project(p)
		if err != nil || !c.InFrame(px) {
			continue
		}
		// Margin: distance from the nearest image border, normalised.
		mx := math.Min(px.X, float64(c.In.W)-px.X) / float64(c.In.W)
		my := math.Min(px.Y, float64(c.In.H)-px.Y) / float64(c.In.H)
		score := math.Min(mx, my)
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("camera: no camera sees %v: %w", p, ErrUnknownCamera)
	}
	return best, nil
}

// Transform returns iTj between two frames known to the rig (camera names
// or "world") — the paper's iTj lookup.
func (r *Rig) Transform(i, j string) (geom.Transform, error) {
	return r.Frames.Resolve(i, j)
}

// standardIntrinsics matches the paper's sensors: 640×480 with a typical
// surveillance-lens 70° horizontal FOV.
func standardIntrinsics() Intrinsics {
	return IntrinsicsFromFOV(640, 480, geom.Deg2Rad(70))
}

// PaperRig builds the two-camera acquisition platform of Fig. 2: cameras
// facing each other across the table at height 2.5 m with −15° pitch,
// 25 fps, 640×480. separation is the distance between the two mounts
// along the world X axis; the table centre sits at the origin.
func PaperRig(separation float64) (*Rig, error) {
	if separation <= 0 {
		return nil, fmt.Errorf("camera: separation must be positive, got %v", separation)
	}
	in := standardIntrinsics()
	mk := func(name string, x float64, yaw float64) *Camera {
		// −15° pitch: look downwards toward the table.
		orient := geom.EulerZYX(yaw, geom.Deg2Rad(15), 0)
		// Pitch sign: our EulerZYX pitch rotates +X toward −Z for
		// positive values (RotY), which is "looking down" — matching
		// the paper's −15° camera pitch.
		return &Camera{
			Name: name,
			Pose: geom.Pose{Position: geom.V3(x, 0, 2.5), Orientation: orient},
			In:   in,
		}
	}
	c1 := mk("C1", -separation/2, 0)      // looks along +X
	c2 := mk("C2", separation/2, math.Pi) // looks along −X, facing C1
	return NewRig(25, c1, c2)
}

// PrototypeRig builds the four-camera prototype of §III: cameras on the
// four corners of a roomW×roomD metre room at 2.5 m elevation, each aimed
// at the table centre (room centre, table height 0.75 m), 25 fps.
func PrototypeRig(roomW, roomD float64) (*Rig, error) {
	if roomW <= 0 || roomD <= 0 {
		return nil, fmt.Errorf("camera: room dimensions must be positive, got %v x %v", roomW, roomD)
	}
	in := standardIntrinsics()
	target := geom.V3(0, 0, 0.75)
	corners := []struct {
		name string
		pos  geom.Vec3
	}{
		{"C1", geom.V3(-roomW/2, -roomD/2, 2.5)},
		{"C2", geom.V3(roomW/2, -roomD/2, 2.5)},
		{"C3", geom.V3(roomW/2, roomD/2, 2.5)},
		{"C4", geom.V3(-roomW/2, roomD/2, 2.5)},
	}
	cams := make([]*Camera, len(corners))
	for i, c := range corners {
		cams[i] = &Camera{
			Name: c.name,
			Pose: geom.LookAt(c.pos, target),
			In:   in,
		}
	}
	return NewRig(25, cams...)
}

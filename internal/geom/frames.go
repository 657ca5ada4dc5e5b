package geom

import (
	"fmt"
	"sort"
	"sync"
)

// FrameGraph tracks a set of named reference frames (cameras, heads, the
// world) and the rigid transforms between them, and answers queries of the
// form "give me iTj" by chaining known edges — the bookkeeping behind the
// paper's Eq. 2, where a gaze vector observed by camera 2 is re-expressed
// in camera 1's frame via ¹T₂ · ²T₄.
//
// The graph is safe for concurrent use.
type FrameGraph struct {
	mu    sync.RWMutex
	edges map[string]map[string]Transform // edges[i][j] = iTj
	// cache holds previously resolved (i,j) pairs. Rigs are static
	// during a run, so after warm-up every Resolve is a single map hit
	// instead of an allocating breadth-first search. Set invalidates it.
	cache map[[2]string]Transform
}

// NewFrameGraph returns an empty frame graph.
func NewFrameGraph() *FrameGraph {
	return &FrameGraph{edges: make(map[string]map[string]Transform)}
}

// ErrNoPath is returned (wrapped) when two frames are not connected.
var ErrNoPath = fmt.Errorf("geom: no transform path between frames")

// Set records iTj (and its inverse jTi). Re-setting an edge overwrites it.
func (g *FrameGraph) Set(i, j string, iTj Transform) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.setLocked(i, j, iTj)
	g.setLocked(j, i, iTj.Inverse())
	g.cache = nil // any cached path may now be stale
}

func (g *FrameGraph) setLocked(i, j string, t Transform) {
	m, ok := g.edges[i]
	if !ok {
		m = make(map[string]Transform)
		g.edges[i] = m
	}
	m[j] = t
}

// Resolve returns iTj, chaining intermediate frames when no direct edge
// exists (breadth-first over recorded edges, so the composition uses the
// fewest hops). It returns a wrapped ErrNoPath when the frames are not
// connected.
func (g *FrameGraph) Resolve(i, j string) (Transform, error) {
	g.mu.RLock()
	if t, ok := g.cache[[2]string{i, j}]; ok {
		g.mu.RUnlock()
		return t, nil
	}
	t, err := g.resolveLocked(i, j)
	g.mu.RUnlock()
	if err != nil {
		return t, err
	}
	g.mu.Lock()
	if g.cache == nil {
		g.cache = make(map[[2]string]Transform)
	}
	g.cache[[2]string{i, j}] = t
	g.mu.Unlock()
	return t, nil
}

func (g *FrameGraph) resolveLocked(i, j string) (Transform, error) {
	if i == j {
		if _, ok := g.edges[i]; !ok {
			return IdentityTransform(), fmt.Errorf("geom: unknown frame %q: %w", i, ErrNoPath)
		}
		return IdentityTransform(), nil
	}
	if _, ok := g.edges[i]; !ok {
		return IdentityTransform(), fmt.Errorf("geom: unknown frame %q: %w", i, ErrNoPath)
	}
	type node struct {
		name string
		t    Transform // iTname accumulated so far
	}
	visited := map[string]bool{i: true}
	queue := []node{{name: i, t: IdentityTransform()}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Deterministic order for reproducible compositions.
		next := make([]string, 0, len(g.edges[cur.name]))
		for n := range g.edges[cur.name] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if visited[n] {
				continue
			}
			t := cur.t.Compose(g.edges[cur.name][n]) // iTcur ∘ curTn = iTn
			if n == j {
				return t, nil
			}
			visited[n] = true
			queue = append(queue, node{name: n, t: t})
		}
	}
	return IdentityTransform(), fmt.Errorf("geom: frames %q and %q not connected: %w", i, j, ErrNoPath)
}

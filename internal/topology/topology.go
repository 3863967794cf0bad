// Package topology restricts which agent pairs may interact: interactions
// happen only along edges of an undirected graph, the generalization of
// the population protocol model studied since Angluin et al. (2005). The
// paper's protocol assumes the complete interaction graph (any two agents
// can meet); this package makes that assumption testable by running the
// same protocol on rings, stars, grids and random regular graphs.
//
// The headline finding, pinned down by the tests: the k-partition
// protocol's correctness genuinely NEEDS the complete graph. On a star,
// rule 8 (two m-heads meeting) can never fire between two leaves, and an
// m-head stranded on a leaf facing a committed hub is permanently stuck —
// the population freezes in a non-uniform partition. Global fairness over
// the restricted edge set does not save it: the required configurations
// are simply unreachable.
package topology

import (
	"errors"
	"fmt"

	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Graph is an undirected interaction graph on n agents (no self-loops, no
// multi-edges). Immutable after construction.
type Graph struct {
	n     int
	edges [][2]int
	adj   [][]int
	name  string
	// complete marks K_n, on which GroupFrozen checks state pairs
	// instead of edges.
	complete bool
}

// newGraph validates and indexes an edge list.
func newGraph(name string, n int, edges [][2]int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need n >= 2, got %d", n)
	}
	g := &Graph{n: n, name: name, adj: make([][]int, n)}
	seen := make(map[[2]int]bool)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("topology: invalid edge (%d,%d)", u, v)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.edges = append(g.edges, key)
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	if len(g.edges) == 0 {
		return nil, errors.New("topology: graph has no edges")
	}
	return g, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name identifies the topology in reports.
func (g *Graph) Name() string { return g.name }

// N returns the number of agents.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns agent i's degree.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) (int, int) { return g.edges[i][0], g.edges[i][1] }

// Connected reports whether the graph is connected — a prerequisite for
// any global computation.
func (g *Graph) Connected() bool {
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// Complete returns K_n.
func Complete(n int) (*Graph, error) {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g, err := newGraph(fmt.Sprintf("complete-%d", n), n, edges)
	if err != nil {
		return nil, err
	}
	g.complete = true
	return g, nil
}

// Ring returns the n-cycle.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs n >= 3, got %d", n)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return newGraph(fmt.Sprintf("ring-%d", n), n, edges)
}

// Star returns the star with agent 0 as the hub.
func Star(n int) (*Graph, error) {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return newGraph(fmt.Sprintf("star-%d", n), n, edges)
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("topology: bad grid %dx%d", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return newGraph(fmt.Sprintf("grid-%dx%d", rows, cols), rows*cols, edges)
}

// RandomRegular returns a random d-regular graph on n vertices via the
// configuration model with rejection (retry until simple and connected).
// n·d must be even and d < n.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d < 2 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("topology: invalid regular graph n=%d d=%d", n, d)
	}
	r := rng.New(seed)
	for attempt := 0; attempt < 1000; attempt++ {
		stubs := make([]int, 0, n*d)
		for v := 0; v < n; v++ {
			for j := 0; j < d; j++ {
				stubs = append(stubs, v)
			}
		}
		r.Shuffle(stubs)
		ok := true
		seen := make(map[[2]int]bool)
		edges := make([][2]int, 0, n*d/2)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			key := [2]int{min(u, v), max(u, v)}
			if seen[key] {
				ok = false
				break
			}
			seen[key] = true
			edges = append(edges, key)
		}
		if !ok {
			continue
		}
		g, err := newGraph(fmt.Sprintf("regular-%d-d%d", n, d), n, edges)
		if err != nil {
			continue
		}
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: could not sample a connected %d-regular graph on %d vertices", d, n)
}

// EdgeScheduler selects an edge uniformly at random each step, with a
// random orientation — the standard random scheduler of graph-restricted
// population protocols. It implements sched.Scheduler.
type EdgeScheduler struct {
	g *Graph
	r *rng.Rand
}

// NewEdgeScheduler builds the scheduler.
func NewEdgeScheduler(g *Graph, seed uint64) *EdgeScheduler {
	return &EdgeScheduler{g: g, r: rng.New(seed)}
}

// Name implements sched.Scheduler.
func (s *EdgeScheduler) Name() string { return "edge-" + s.g.Name() }

// Next implements sched.Scheduler.
func (s *EdgeScheduler) Next(v sched.View) (int, int) {
	e := s.g.edges[s.r.Intn(len(s.g.edges))]
	if s.r.Uint64()&1 == 0 {
		return e[0], e[1]
	}
	return e[1], e[0]
}

// Orbits describes, for each state, the set of states an agent can move
// through WITHOUT changing group while the rest of the configuration
// stays put (for the k-partition protocol: {initial, initial'} for the
// free states, the singleton otherwise — parity flips are its only
// group-preserving moves; see core.ParityOrbit).
type Orbits func(s protocol.State) []protocol.State

// SingletonOrbits is the trivial orbit function (no group-preserving
// mutations). Using it makes GroupFrozen a pure one-step check, which is
// UNSOUND for protocols with handshake states — supply real orbits.
func SingletonOrbits(s protocol.State) []protocol.State {
	return []protocol.State{s}
}

// GroupFrozen reports whether the configuration can never change any
// agent's group again UNDER THIS GRAPH. The sound criterion is orbit
// CLOSURE, not mere one-step group preservation: for every edge, every
// orientation, and every combination of orbit representatives of the
// endpoint states, the transition must map each endpoint back INTO its
// own orbit. Then every reachable configuration differs from this one
// only by orbit (parity) reassignments — by induction the check keeps
// holding and no agent's group can ever move.
//
// Two weaker checks fail instructively, and the tests pin both down:
// plain one-step group preservation misses that two same-parity free
// neighbours can flip into rule 5 (orbit expansion fixes that), and even
// orbit-expanded GROUP preservation misses rule 10 — (d1, g1) → (initial,
// initial) keeps everyone in group 1 yet frees two agents whose later
// rule 5 changes groups. Requiring closure into the orbits rejects both.
//
// On the complete graph every ordered pair of distinct agents is an edge
// orientation, so the criterion depends only on which states are present
// (and, for a pair of equal states, on two agents holding it): the check
// runs over the count vector in O(S²·orbit²) instead of over n(n−1)/2
// edges.
func GroupFrozen(pop *population.Population, g *Graph, p protocol.Protocol, orbits Orbits) bool {
	if orbits == nil {
		orbits = SingletonOrbits
	}
	if g.complete {
		counts := pop.CountsView()
		for sa, ca := range counts {
			if ca == 0 {
				continue
			}
			for sb, cb := range counts {
				if cb == 0 || (sa == sb && ca < 2) {
					continue
				}
				if !pairClosed(protocol.State(sa), protocol.State(sb), p, orbits) {
					return false
				}
			}
		}
		return true
	}
	for _, e := range g.edges {
		if !pairClosed(pop.State(e[0]), pop.State(e[1]), p, orbits) ||
			!pairClosed(pop.State(e[1]), pop.State(e[0]), p, orbits) {
			return false
		}
	}
	return true
}

// pairClosed reports whether every interaction of an initiator in sa's
// orbit with a responder in sb's orbit maps each back into its own orbit.
func pairClosed(sa, sb protocol.State, p protocol.Protocol, orbits Orbits) bool {
	inOrbit := func(s, of protocol.State) bool {
		for _, o := range orbits(of) {
			if s == o {
				return true
			}
		}
		return false
	}
	for _, a := range orbits(sa) {
		for _, b := range orbits(sb) {
			out, _ := p.Delta(a, b)
			if !inOrbit(out.P, sa) || !inOrbit(out.Q, sb) {
				return false
			}
		}
	}
	return true
}

// FrozenCondition is a sim.StopCondition that fires when the configuration
// is group-frozen on the graph. The scan is O(E·orbit²) — O(S²·orbit²)
// on the complete graph — and runs only on steps that changed a state.
type FrozenCondition struct {
	G      *Graph
	Proto  protocol.Protocol
	Orbits Orbits
	frozen bool
}

// Init implements sim.StopCondition.
func (c *FrozenCondition) Init(pop *population.Population) {
	c.frozen = GroupFrozen(pop, c.G, c.Proto, c.Orbits)
}

// Satisfied reports pre-satisfaction at Init.
func (c *FrozenCondition) Satisfied() bool { return c.frozen }

// Step implements sim.StopCondition.
func (c *FrozenCondition) Step(pop *population.Population, s sim.StepInfo) bool {
	if s.Changed {
		c.frozen = GroupFrozen(pop, c.G, c.Proto, c.Orbits)
	}
	return c.frozen
}

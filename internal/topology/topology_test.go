package topology

import (
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestGraphConstructors(t *testing.T) {
	k5, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if k5.NumEdges() != 10 || !k5.Connected() || k5.Degree(0) != 4 {
		t.Fatalf("K5: edges=%d", k5.NumEdges())
	}
	ring, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if ring.NumEdges() != 6 || ring.Degree(3) != 2 || !ring.Connected() {
		t.Fatal("ring structure wrong")
	}
	star, err := Star(7)
	if err != nil {
		t.Fatal(err)
	}
	if star.NumEdges() != 6 || star.Degree(0) != 6 || star.Degree(1) != 1 {
		t.Fatal("star structure wrong")
	}
	grid, err := Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if grid.N() != 12 || grid.NumEdges() != 3*3+2*4 || !grid.Connected() {
		t.Fatalf("grid: n=%d edges=%d", grid.N(), grid.NumEdges())
	}
}

func TestGraphValidation(t *testing.T) {
	if _, err := Complete(1); err == nil {
		t.Fatal("K1 accepted")
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("2-ring accepted")
	}
	if _, err := newGraph("bad", 3, [][2]int{{0, 0}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := newGraph("bad", 3, [][2]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// Duplicate edges are deduplicated, not an error.
	g, err := newGraph("dup", 3, [][2]int{{0, 1}, {1, 0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("dedup failed: %d edges", g.NumEdges())
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := RandomRegular(20, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 || g.NumEdges() != 40 || !g.Connected() {
		t.Fatalf("regular graph wrong: edges=%d", g.NumEdges())
	}
	for i := 0; i < 20; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("vertex %d degree %d", i, g.Degree(i))
		}
	}
	if _, err := RandomRegular(5, 3, 1); err == nil { // odd n·d
		t.Fatal("odd stub count accepted")
	}
	if _, err := RandomRegular(4, 4, 1); err == nil { // d >= n
		t.Fatal("d >= n accepted")
	}
}

func TestEdgeSchedulerRespectsGraph(t *testing.T) {
	g, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNew(3)
	pop := population.New(p, 8)
	s := NewEdgeScheduler(g, 5)
	for i := 0; i < 10000; i++ {
		a, b := s.Next(pop)
		diff := (a - b + 8) % 8
		if diff != 1 && diff != 7 {
			t.Fatalf("non-ring pair (%d,%d)", a, b)
		}
	}
}

// On the COMPLETE graph the edge scheduler is the standard model; the
// protocol must stabilize to the uniform partition.
func TestCompleteGraphStabilizes(t *testing.T) {
	const n, k = 12, 3
	g, err := Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNew(k)
	pop := population.New(p, n)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(pop, NewEdgeScheduler(g, 2), sim.NewCountTarget(p.CanonMap(), target),
		sim.Options{MaxInteractions: 10_000_000})
	if err != nil || !res.Converged {
		t.Fatalf("%v %+v", err, res)
	}
}

// The frozenness criterion, exercised on the three configuration shapes
// that defeated weaker versions of it during development:
//
//  1. a genuinely stable configuration with a leftover free agent IS
//     frozen (parity flips stay within orbit);
//  2. two same-parity free neighbours are NOT frozen (orbit expansion
//     reveals the latent rule 5);
//  3. an adjacent (d1, g1) pair is NOT frozen even though rule 10 keeps
//     both agents in group 1 — the liberated agents change groups later,
//     which only the orbit-CLOSURE requirement catches.
func TestGroupFrozenCriterion(t *testing.T) {
	p := core.MustNew(3)
	g, err := Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	// 1. Stable: g1 g2 g3 + one free agent.
	pop := population.FromStates(p, []protocol.State{p.G(1), p.G(2), p.G(3), p.Initial()})
	if !GroupFrozen(pop, g, p, p.ParityOrbit) {
		t.Fatal("stable configuration with leftover free agent not frozen")
	}
	// 2. Two same-parity frees.
	pop = population.FromStates(p, []protocol.State{p.Initial(), p.Initial(), p.G(1), p.G(2)})
	if GroupFrozen(pop, g, p, p.ParityOrbit) {
		t.Fatal("latent rule 5 missed")
	}
	// 3. Rule 10 liberation: d1 + g1 adjacent. (Lemma 1 needs
	// #g1 = #d1 + #gk = 2 here, hence the five-agent configuration.)
	g5, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	pop = population.FromStates(p, []protocol.State{p.D(1), p.G(1), p.G(1), p.G(2), p.G(3)})
	if err := p.CheckInvariant(pop.Counts()); err != nil {
		t.Fatalf("test configuration invalid: %v", err)
	}
	if GroupFrozen(pop, g5, p, p.ParityOrbit) {
		t.Fatal("rule-10 liberation missed: group-preserving but not orbit-closed")
	}
}

// On the complete graph GroupFrozen checks state pairs over the count
// vector; it must agree with the edge scan over the same graph (built
// without the complete mark) on random configurations. Drawing each
// configuration's states from a small random subset makes frozen and
// unfrozen outcomes both common.
func TestGroupFrozenCompleteMatchesEdgeScan(t *testing.T) {
	r := rng.New(0xF0)
	outcomes := map[bool]int{}
	for trial := 0; trial < 3000; trial++ {
		k := 2 + r.Intn(4)
		p := core.MustNew(k)
		n := 2 + r.Intn(9)
		subset := make([]protocol.State, 1+r.Intn(3))
		for i := range subset {
			subset[i] = protocol.State(r.Intn(p.NumStates()))
		}
		states := make([]protocol.State, n)
		for i := range states {
			states[i] = subset[r.Intn(len(subset))]
		}
		pop := population.FromStates(p, states)
		kn, err := Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		var edges [][2]int
		for i := 0; i < kn.NumEdges(); i++ {
			u, v := kn.Edge(i)
			edges = append(edges, [2]int{u, v})
		}
		scan, err := newGraph("complete-edges", n, edges)
		if err != nil {
			t.Fatal(err)
		}
		got, want := GroupFrozen(pop, kn, p, p.ParityOrbit), GroupFrozen(pop, scan, p, p.ParityOrbit)
		if got != want {
			t.Fatalf("k=%d states %v: count check %v, edge scan %v", k, states, got, want)
		}
		outcomes[got]++
	}
	if outcomes[true] < 100 || outcomes[false] < 100 {
		t.Fatalf("outcomes too lopsided to compare the checks: %v", outcomes)
	}
}

// THE negative result: on a star, the k-partition protocol can freeze in a
// NON-uniform partition (an m-head stranded on a leaf facing a committed
// hub can never meet another m or a free agent). Verified across seeds:
// at least one run freezes non-uniformly, demonstrating that the paper's
// complete-interaction-graph assumption is necessary.
func TestStarCanFreezeNonUniform(t *testing.T) {
	const n, k = 9, 3
	g, err := Star(n)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNew(k)
	sawNonUniform := false
	sawFrozen := 0
	for seed := uint64(0); seed < 20; seed++ {
		pop := population.New(p, n)
		cond := &FrozenCondition{G: g, Proto: p, Orbits: p.ParityOrbit}
		res, err := sim.Run(pop, NewEdgeScheduler(g, rng.StreamSeed(4, seed)), cond,
			sim.Options{MaxInteractions: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			continue // still wandering; fine, we only need frozen samples
		}
		sawFrozen++
		if res.Spread() > 1 {
			sawNonUniform = true
			// Hammer the frozen configuration to confirm it is truly
			// stuck (group sizes never change again).
			sizes := append([]int(nil), pop.GroupSizes()...)
			if _, err := sim.Run(pop, NewEdgeScheduler(g, 999), sim.After{N: pop.Interactions() + 100_000},
				sim.Options{}); err != nil {
				t.Fatal(err)
			}
			after := pop.GroupSizes()
			for i := range sizes {
				if sizes[i] != after[i] {
					t.Fatalf("frozen verdict was wrong: groups moved %v -> %v", sizes, after)
				}
			}
		}
	}
	if sawFrozen == 0 {
		t.Fatal("no star run froze within the cap")
	}
	if !sawNonUniform {
		t.Fatal("star runs all froze uniformly across 20 seeds; the expected deadlock did not appear")
	}
}

// The ring also admits deadlocks (stranded m-heads between committed
// neighbours); verify frozen detection terminates every run and record
// the split between uniform and non-uniform outcomes.
func TestRingRunsAlwaysFreeze(t *testing.T) {
	const n, k = 9, 3
	g, err := Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNew(k)
	for seed := uint64(0); seed < 10; seed++ {
		pop := population.New(p, n)
		cond := &FrozenCondition{G: g, Proto: p, Orbits: p.ParityOrbit}
		res, err := sim.Run(pop, NewEdgeScheduler(g, rng.StreamSeed(6, seed)), cond,
			sim.Options{MaxInteractions: 20_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: ring run did not freeze in 20M interactions", seed)
		}
	}
}

// Scheduler interface compliance.
var _ sched.Scheduler = (*EdgeScheduler)(nil)
var _ sim.StopCondition = (*FrozenCondition)(nil)

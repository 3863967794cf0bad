package twin

import (
	"errors"
	"math"
	"testing"

	"repro/internal/harness"
	"repro/internal/markov"
)

// exactFixtures are the (n, k) points small enough for internal/markov's
// full configuration chain, covering r = 0 and r > 0, k = 2..4.
var exactFixtures = []struct{ n, k int }{
	{6, 2}, {7, 2}, {6, 3}, {7, 3}, {8, 3}, {9, 3}, {8, 4}, {9, 4},
}

func TestLumpedMatchesMarkovExactly(t *testing.T) {
	for _, fx := range exactFixtures {
		rep, err := CrossValidateExact(fx.n, fx.k)
		if err != nil {
			t.Fatalf("CrossValidateExact(%d, %d): %v", fx.n, fx.k, err)
		}
		// The contract is RelErrExact (0.1%); the actual agreement is at
		// solver tolerance. Assert well inside the contract so drift shows
		// up long before the gate trips.
		if rep.MaxRelErr > 1e-7 {
			t.Errorf("n=%d k=%d: max rel err %.3g (mean %.6f vs %.6f, std %.6f vs %.6f)",
				fx.n, fx.k, rep.MaxRelErr, rep.Mean, rep.ExactMean, rep.Std, rep.ExactStd)
		}
	}
}

func TestLumpedMilestonesShape(t *testing.T) {
	pr, err := NewLumped(DefaultStateBudget).Predict(Spec{N: 13, K: 3, Milestones: true})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	q := 13 / 3
	if len(pr.Milestones) != q {
		t.Fatalf("got %d milestones, want %d", len(pr.Milestones), q)
	}
	prev := 0.0
	for j, m := range pr.Milestones {
		if m <= prev {
			t.Errorf("milestone %d = %g not strictly increasing past %g", j+1, m, prev)
		}
		prev = m
	}
	if last := pr.Milestones[q-1]; last > pr.ExpectedInteractions+1e-9 {
		t.Errorf("last milestone %g exceeds stabilization %g", last, pr.ExpectedInteractions)
	}
}

// The reduced chain must be isomorphic to the full configuration
// graph: Lemma 1 makes the projection a bijection on
// reachable configurations, so the node counts must agree EXACTLY —
// fewer would mean an invalid merge, more would mean decode/encode
// disagree.
func TestLumpedBijectsOntoFullChain(t *testing.T) {
	for _, fx := range exactFixtures {
		pr, err := NewLumped(DefaultStateBudget).Predict(Spec{N: fx.n, K: fx.k})
		if err != nil {
			t.Fatalf("Predict(%d, %d): %v", fx.n, fx.k, err)
		}
		ch, err := markov.New(harness.Proto(fx.k), fx.n)
		if err != nil {
			t.Fatalf("markov.New(%d, %d): %v", fx.n, fx.k, err)
		}
		if full := len(ch.Graph.Nodes); pr.States != full {
			t.Errorf("n=%d k=%d: lumped %d states, full chain %d — projection is not a bijection",
				fx.n, fx.k, pr.States, full)
		}
		// lumpedCount enumerates all Lemma-1-consistent vectors, a superset
		// of the reachable set, so it must upper-bound the built chain.
		if cap := lumpedCount(fx.n, fx.k, 1<<30); pr.States > cap {
			t.Errorf("n=%d k=%d: built %d states above enumeration bound %d",
				fx.n, fx.k, pr.States, cap)
		}
	}
}

func TestLumpedBudgetExceeded(t *testing.T) {
	_, err := NewLumped(3).Predict(Spec{N: 30, K: 3})
	if err == nil {
		t.Fatal("expected budget error, got nil")
	}
}

func TestLumpedRejectsInvalidSpec(t *testing.T) {
	for _, s := range []Spec{{N: 0, K: 3}, {N: 10, K: 1}, {N: -2, K: 2}} {
		_, err := NewLumped(DefaultStateBudget).Predict(s)
		if !errors.Is(err, harness.ErrInvalidSpec) {
			t.Errorf("Predict(%+v): err = %v, want ErrInvalidSpec", s, err)
		}
	}
}

func TestEnumerateLevelConsistent(t *testing.T) {
	p := harness.Proto(4)
	n := 17
	for c := 0; c <= n/4; c++ {
		vecs := enumerateLevel(p, n, c)
		seen := make(map[string]bool, len(vecs))
		counts := make([]int, p.NumStates())
		for _, vec := range vecs {
			key := vecKey(vec)
			if seen[key] {
				t.Fatalf("level %d: duplicate vector %v", c, vec)
			}
			seen[key] = true
			decodeFull(p, vec, counts)
			pop := 0
			for _, ct := range counts {
				pop += ct
			}
			if pop != n {
				t.Fatalf("level %d: vector %v decodes to population %d, want %d", c, vec, pop, n)
			}
			if err := p.CheckInvariant(counts); err != nil {
				t.Fatalf("level %d: vector %v violates Lemma 1: %v", c, vec, err)
			}
		}
	}
}

func TestSelectPicksRungByBudget(t *testing.T) {
	if m := Select(10, 3, DefaultStateBudget); m.Name() != "lumped" {
		t.Errorf("Select(10, 3) = %s, want lumped", m.Name())
	}
	if m := Select(100_000, 3, DefaultStateBudget); m.Name() != "meanfield" {
		t.Errorf("Select(100000, 3) = %s, want meanfield", m.Name())
	}
	if m := Select(10, 3, 1); m.Name() != "meanfield" {
		t.Errorf("Select(10, 3, budget 1) = %s, want meanfield", m.Name())
	}
}

// The Gauss–Seidel fallback against a direct solve: (12,6) has one level
// above denseLevelCap (888 transient nodes). Assembled densely and
// LU-solved, with right-hand sides formed here from their definitions,
// that level must reproduce the iterative E, M and occupancy answers.
func TestGaussSeidelLevelMatchesDirect(t *testing.T) {
	ch, err := buildLumped(harness.Proto(6), 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	E, M, err := ch.hitting(ch.stable, true)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := ch.occupancy()
	if err != nil {
		t.Fatal(err)
	}
	// direct solves trans's system (transposed or not) for rhs by LU.
	direct := func(trans []int, rhs []float64, transpose bool) []float64 {
		ls := ch.assemble(trans, ch.localIndex(), transpose)
		if err := ls.factor(); err != nil {
			t.Fatal(err)
		}
		ls.solveDense(rhs)
		return rhs
	}
	agree := func(what string, trans []int, iter []float64, want []float64) {
		for r, i := range trans {
			if d := math.Abs(iter[i] - want[r]); d > 1e-9*math.Abs(want[r]) {
				t.Fatalf("%s at node %d: Gauss–Seidel %.17g, direct %.17g", what, i, iter[i], want[r])
			}
		}
	}
	levelOf := func(i int) int { return level(ch.nodes[i]) }
	big := 0
	for _, nodes := range ch.levels {
		var trans []int
		for _, i := range nodes {
			if !ch.stable[i] {
				trans = append(trans, i)
			}
		}
		if len(trans) <= denseLevelCap {
			continue
		}
		big++
		rhsE := make([]float64, len(trans))
		rhsM := make([]float64, len(trans))
		for r, i := range trans {
			rhsE[r], rhsM[r] = 1, 1+2*ch.self[i]*E[i]
			for _, e := range ch.out[i] {
				rhsM[r] += 2 * e.P * E[e.To]
				if levelOf(e.To) > levelOf(i) {
					rhsE[r] += e.P * E[e.To]
					rhsM[r] += e.P * M[e.To]
				}
			}
		}
		// Occupancy mass entering the level: the start node's unit plus
		// what every lower-level node passes up.
		entry := make(map[int]float64, len(trans))
		for j, edges := range ch.out {
			for _, e := range edges {
				if levelOf(j) < levelOf(e.To) {
					entry[e.To] += e.P * nu[j]
				}
			}
		}
		entry[ch.start]++
		rhsNu := make([]float64, len(trans))
		for r, i := range trans {
			rhsNu[r] = entry[i]
		}
		agree("E", trans, E, direct(trans, rhsE, false))
		agree("M", trans, M, direct(trans, rhsM, false))
		agree("occupancy", trans, nu, direct(trans, rhsNu, true))
	}
	if big != 1 {
		t.Fatalf("(12,6) has %d levels above the dense cap, want 1", big)
	}
}

package main

// twin-solve: cold predictions over a fixed grid, each with a fresh
// model, covering the exact lumped chain (all-dense levels and levels
// solved by Gauss–Seidel) and the mean-field rung from n = 10³ to 10⁷.
// Predictions are checked against internal/markov and the committed
// TWIN_baseline.json on the points those cover.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/obs/span"
	"repro/internal/rng"
	"repro/internal/twin"
)

// twinPoint is one prediction of the grid. lumped says which rung the
// point is meant to exercise; the op checks that twin.Auto's selection
// rule agrees.
type twinPoint struct {
	n, k   int
	lumped bool
}

// twinGrid returns the pass's predictions in seed-shuffled order, with
// each mean-field n moved by a seed-chosen multiple of k within 1%.
// (n, k) = (10⁸, 8) and (10⁸, 6) are left out: both fail today (the
// fluid does not reach its handoff level) after 20 s or more, which a
// repeated pass cannot afford; README.md records them.
func twinGrid(seed uint64, probe bool) []twinPoint {
	var g []twinPoint
	if probe {
		g = []twinPoint{{9, 4, true}, {12, 4, true}, {1000, 4, false}, {10_000, 6, false}}
	} else {
		g = []twinPoint{
			// Exact rung: points internal/markov and the baseline cover,
			// all-dense chains, and (24, 4), whose largest levels exceed
			// the dense solver's cap.
			{7, 3, true}, {9, 3, true}, {8, 4, true}, {9, 4, true}, {60, 2, true},
			{12, 4, true}, {12, 6, true}, {24, 4, true},
			// Mean-field rung: the baseline points, then 10³..10⁷.
			{100, 5, false}, {120, 4, false},
			{1_000_000, 4, false}, {10_000_000, 4, false},
		}
		for _, n := range []int{1_000, 10_000, 100_000} {
			for _, k := range []int{4, 6, 8} {
				g = append(g, twinPoint{n, k, false})
			}
		}
	}
	r := rng.New(rng.StreamSeed(seed, 0x7715))
	for i := range g {
		if p := &g[i]; !p.lumped && p.n >= 1000 {
			p.n += p.k * r.Intn(p.n/(100*p.k))
		}
	}
	for i := len(g) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		g[i], g[j] = g[j], g[i]
	}
	return g
}

// twinRef is the reference a prediction is checked against.
type twinRef struct {
	mean   float64
	budget float64
	source string
}

// baselineDoc is the part of TWIN_baseline.json the checks read.
type baselineDoc struct {
	Sim []struct {
		N       int     `json:"n"`
		K       int     `json:"k"`
		SimMean float64 `json:"sim_mean"`
	} `json:"sim"`
}

// twinRefs computes the exact references (internal/markov, through
// twin.CrossValidateExact) for the small points and reads the committed
// simulation means for the baseline points.
func twinRefs(grid []twinPoint, baselinePath string) (map[[2]int]twinRef, error) {
	b, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("reading twin baseline: %w", err)
	}
	var doc baselineDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	refs := map[[2]int]twinRef{}
	for _, bp := range doc.Sim {
		refs[[2]int{bp.N, bp.K}] = twinRef{bp.SimMean, twin.RelErrFluid, "baseline"}
	}
	for _, p := range grid {
		if p.lumped && p.n <= 9 {
			rep, err := twin.CrossValidateExact(p.n, p.k)
			if err != nil {
				return nil, fmt.Errorf("markov reference n=%d k=%d: %w", p.n, p.k, err)
			}
			refs[[2]int{p.n, p.k}] = twinRef{rep.ExactMean, twin.RelErrExact, "markov"}
		}
	}
	return refs, nil
}

// twinOp predicts one point with a fresh model of the rung twin.Auto
// would select, and checks the answer: the selected rung is the one the
// grid names, the mean is positive and finite, it matches the reference
// within the rung's committed budget, and it repeats bit for bit.
func twinOp(p twinPoint, refs map[[2]int]twinRef, first map[[2]int]float64) op {
	rung := "meanfield"
	if p.lumped {
		rung = "lumped"
	}
	name := fmt.Sprintf("predict %s n=%d k=%d", rung, p.n, p.k)
	return op{name: name, run: func(_ context.Context, r *report) (work, error) {
		var model twin.Model = twin.NewMeanField()
		if twin.LumpedFits(p.n, p.k, twin.DefaultStateBudget) {
			model = twin.NewLumped(twin.DefaultStateBudget)
		}
		pr, err := model.Predict(twin.Spec{N: p.n, K: p.k})
		if err != nil {
			return nil, err
		}
		if pr.Model != rung {
			r.violate("%s: answered by rung %s", name, pr.Model)
		}
		mean := pr.ExpectedInteractions
		if !(mean > 0) || math.IsInf(mean, 0) {
			r.violate("%s: expected interactions %v", name, mean)
		}
		if ref, ok := refs[[2]int{p.n, p.k}]; ok {
			if e := math.Abs(mean-ref.mean) / (1 + math.Abs(ref.mean)); e > ref.budget {
				r.violate("%s: mean %g vs %s %g: relative error %.3g over budget %g", name, mean, ref.source, ref.mean, e, ref.budget)
			}
		}
		key := [2]int{p.n, p.k}
		if prev, ok := first[key]; !ok {
			first[key] = mean
		} else if prev != mean {
			r.violate("%s: mean %v differs from the first pass's %v", name, mean, prev)
		}
		w := work{"predictions": 1}
		if pr.Model == "lumped" {
			w["lumped_states"] = uint64(pr.States)
		} else {
			w["endgame_states"] = uint64(pr.States)
		}
		return w, nil
	}}
}

func runTwinSolve(cfg config) (*report, error) {
	r := newReport("twin-solve")
	grid := twinGrid(cfg.seed, cfg.probe)
	first := map[[2]int]float64{}
	ops, err := setupRuns(r, func() ([]op, error) {
		// Set-up computes the references and warms the code paths on
		// predictions outside the grid; the grid itself stays cold.
		refs, err := twinRefs(grid, cfg.baseline)
		if err != nil {
			return nil, err
		}
		for _, s := range []twin.Spec{{N: 14, K: 4}, {N: 11, K: 5}, {N: 5000, K: 5}, {N: 50_000, K: 7}} {
			if _, err := twin.Auto(s); err != nil {
				return nil, fmt.Errorf("warm-up n=%d k=%d: %w", s.N, s.K, err)
			}
		}
		ops := make([]op, len(grid))
		for i, p := range grid {
			ops[i] = twinOp(p, refs, first)
		}
		return ops, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("pass: %d predictions\n", len(ops))
	if !cfg.trace {
		opRounds(r, ops, cfg.budget)
		return r, r.setRSS()
	}
	budget := cfg.budget * 7 / 10
	if cfg.probe {
		budget = 0
	}
	failedBefore := r.failed
	passes := 0
	last := tracedRounds(r, ops, budget, func() func(i int) (context.Context, func()) {
		passes++
		return opTrace(span.NewCollector(nil))
	})
	var lumpedMS, mfMS float64
	for i, p := range grid {
		if p.lumped {
			lumpedMS += last.lat[i]
		} else {
			mfMS += last.lat[i]
		}
	}
	states := float64(r.work["pass"]["lumped_states"])
	r.set("twin.lumped_s", lumpedMS/1e3, "s")
	r.set("twin.lumped_states", states, "count")
	r.set("twin.lumped_us_per_state", ratio(lumpedMS*1e3, states), "us")
	r.set("twin.meanfield_s", mfMS/1e3, "s")
	r.set("twin.endgame_states", float64(r.work["pass"]["endgame_states"]), "count")
	r.set("twin.failed", float64(r.failed-failedBefore)/float64(2*passes), "count")
	return r, nil
}

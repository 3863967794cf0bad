package main

// paper-sweep: the paper's evaluation grid (Figures 3–6), one trial at a
// time through harness.RunTrialCtx. The per-layer numbers for the agent
// engine (sim.*), the sequential count engine (countsim.*) and the
// harness (harness.trial_self_us) come from the span trees of a traced
// pass.

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/obs/span"
	"repro/internal/rng"
)

// paperGrid is one figure's slice of the pass: every (k, n) point runs
// trials times under distinct seeds.
type paperGrid struct {
	engine   harness.Engine
	grouping bool
	ks       []int
	ns       func(k int) []int
	trials   int
}

// paperGrids is the pass: Fig 3/4, Fig 5, Fig 6, and Fig 6's k = 10 and
// 12. The sizes keep every trial short: a trial's cost varies by a
// factor of about 1.5 from seed to seed, so the pass total only repeats
// across workload seeds when it is the sum of many small trials. Fig 5
// therefore stops at n′ = 2 and Fig 6 at k = 8 on the count engine
// (n = 960, k = 12 costs 0.3 s a trial with a 70% spread); the k up to
// 12 of Fig 6 is covered at n = 120.
func paperGrids(probe bool) []paperGrid {
	f34 := func(k int) []int {
		var ns []int
		for n := k + 2; n <= 60; n++ {
			ns = append(ns, n)
		}
		return ns
	}
	fixed := func(ns ...int) func(int) []int { return func(int) []int { return ns } }
	if probe {
		return []paperGrid{
			{engine: harness.EngineAgent, grouping: true, ks: []int{4, 8}, ns: fixed(40, 60), trials: 2},
			{engine: harness.EngineAgent, ks: []int{4}, ns: fixed(120), trials: 2},
			{engine: harness.EngineCount, ks: []int{4, 6}, ns: fixed(960), trials: 2},
		}
	}
	return []paperGrid{
		{engine: harness.EngineAgent, grouping: true, ks: []int{4, 6, 8}, ns: f34, trials: 6},
		{engine: harness.EngineAgent, ks: []int{3, 4, 5, 6}, ns: fixed(120, 240), trials: 12},
		{engine: harness.EngineCount, ks: []int{2, 3, 4, 5, 6, 8}, ns: fixed(960), trials: 6},
		{engine: harness.EngineCount, ks: []int{10, 12}, ns: fixed(120), trials: 4},
	}
}

// paperSpecs expands the grids into the pass's trials. Trial seeds
// derive from the workload seed as StreamSeed(seed, point, trial), the
// harness's own sweep derivation.
func paperSpecs(seed uint64, probe bool) []harness.TrialSpec {
	var specs []harness.TrialSpec
	point := uint64(0)
	for _, g := range paperGrids(probe) {
		for _, k := range g.ks {
			for _, n := range g.ns(k) {
				for t := 0; t < g.trials; t++ {
					specs = append(specs, harness.TrialSpec{
						N: n, K: k,
						Seed:     rng.StreamSeed(seed, point, uint64(t)),
						Grouping: g.grouping,
						Engine:   g.engine,
					})
				}
				point++
			}
		}
	}
	return specs
}

// trialOp runs one trial through the harness. The trial must converge
// to a partition with spread at most one.
func trialOp(spec harness.TrialSpec) op {
	name := fmt.Sprintf("trial n=%d k=%d engine=%s seed=%#x", spec.N, spec.K, spec.Engine, spec.Seed)
	return op{name: name, run: func(ctx context.Context, r *report) (work, error) {
		res, err := harness.RunTrialCtx(ctx, spec, harness.RunOptions{})
		if err != nil {
			return nil, err
		}
		checkTrial(r, name, res)
		return work{
			"trials":       1,
			"interactions": res.Interactions,
			"productive":   res.Productive,
			"marks":        uint64(len(res.Marks)),
		}, nil
	}}
}

// checkTrial is the output check every trial result must pass.
func checkTrial(r *report, name string, res harness.TrialResult) {
	if !res.Converged || res.Spread > 1 {
		r.violate("%s: converged=%t spread=%d (want converged, spread <= 1)", name, res.Converged, res.Spread)
	}
	if res.Spec.Grouping && len(res.Marks) != res.Spec.N/res.Spec.K {
		r.violate("%s: %d grouping marks, want n/k = %d", name, len(res.Marks), res.Spec.N/res.Spec.K)
	}
}

// warm runs every stride-th op once outside the timed phase: protocol
// tables, code and heap reach their steady state before timing starts.
func warm(r *report, ops []op, stride int) error {
	for i := 0; i < len(ops); i += stride {
		if _, err := ops[i].run(context.Background(), r); err != nil {
			return fmt.Errorf("warm-up %s: %w", ops[i].name, err)
		}
	}
	return nil
}

func runPaperSweep(cfg config) (*report, error) {
	r := newReport("paper-sweep")
	ops, err := setupRuns(r, func() ([]op, error) {
		specs := paperSpecs(cfg.seed, cfg.probe)
		ops := make([]op, len(specs))
		for i, s := range specs {
			ops[i] = trialOp(s)
		}
		return ops, warm(r, ops, 4)
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("pass: %d trials\n", len(ops))
	if !cfg.trace {
		opRounds(r, ops, cfg.budget)
		return r, r.setRSS()
	}
	budget := cfg.budget * 7 / 10
	if cfg.probe {
		budget = 0
	}
	var col *span.Collector
	tracedRounds(r, ops, budget, func() func(i int) (context.Context, func()) {
		col = span.NewCollector(nil)
		return opTrace(col)
	})
	f := buildForest(col.Export())
	f.printRollup()
	paperLayers(r, f)
	return r, nil
}

// opTrace returns a per-op wrapper that roots one trace per op in col:
// a "bench/op" span whose context the op passes to the harness.
func opTrace(col *span.Collector) func(i int) (context.Context, func()) {
	return func(i int) (context.Context, func()) {
		root := col.NewTrace(fmt.Sprintf("op%06d", i)).Root("bench/op")
		sw := span.StartWall()
		return span.NewContext(context.Background(), root), func() {
			sw.StopInto(root)
			root.End()
		}
	}
}

// paperLayers derives the harness, agent-engine and count-engine layer
// metrics from a traced pass. Engine spans carry interaction counts, not
// wall time, so an engine's time is the wall time of the attempt span
// that holds it (its only child); the harness's own share is the trial
// span's self time.
func paperLayers(r *report, f spanForest) {
	var trialSelf []float64
	for _, t := range f.named("trial") {
		trialSelf = append(trialSelf, t.selfUS)
	}
	r.set("harness.trial_self_us.p50", median(trialSelf), "us")

	var inter, prod, endgame uint64
	var agentUS float64
	for _, e := range f.named("engine/agent") {
		i := e.attrUint("interactions")
		inter += i
		prod += e.attrUint("productive")
		agentUS += float64(e.parent.WallDurUS)
		// Phase spans end at their milestone; the endgame runs from the
		// second-to-last milestone to the end of the engine span.
		var phases []*spanNode
		for _, c := range e.children {
			if c.Name == "phase/grouping" {
				phases = append(phases, c)
			}
		}
		if len(phases) >= 2 {
			endgame += i - phases[len(phases)-2].EndSeq
		} else {
			endgame += i
		}
	}
	r.set("sim.interactions", float64(inter), "count")
	r.set("sim.productive_ratio", ratio(float64(prod), float64(inter)), "ratio")
	r.set("sim.ns_per_interaction", ratio(agentUS*1e3, float64(inter)), "ns")
	r.set("sim.endgame_share", ratio(float64(endgame), float64(inter)), "ratio")

	var cprod uint64
	var countUS float64
	for _, e := range f.named("engine/count") {
		cprod += e.attrUint("productive")
		countUS += float64(e.parent.WallDurUS)
	}
	r.set("countsim.productive", float64(cprod), "count")
	r.set("countsim.ns_per_productive", ratio(countUS*1e3, float64(cprod)), "ns")
}

// ratio is a / b, or 0 when b is 0 (a layer the pass did not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

// scale-batch: batched count engine trials from n = 960 to n = 10⁷, one
// at a time through harness.RunTrialCtx. The traced pass also drives
// countsim.NewBatch directly, with the protocol's invariant check and
// stability predicate wrapped in timers, for the batch.* layer metrics.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/countsim"
	"repro/internal/harness"
	"repro/internal/obs/span"
	"repro/internal/rng"
)

// batchPoint is one (n, k) of the pass; size > 0 selects matching mode.
type batchPoint struct {
	n, k int
	size uint64
}

// batchPoints spans n = 960 to 10⁷ with k in 3..8 and one fixed-size
// matching-mode point. n = 960, k = 8, where the batch engine is several
// times slower than the sequential count engine, runs in the same pass
// as n = 10⁷, so a change to the audit cadence or the engine crossover
// that helps one end and hurts the other shows in the total.
//
// The pass stops at n = 10⁷. At n = 10⁸ the run time depends heavily on
// the seed at every k tried (3 to 8): one seed in 8 to 24 takes 5–16
// times the median, spending nearly all of it in rng.Binomial's
// mode-inversion branch, whose cost grows with the square root of the
// variance drawn. One such trial would decide the pass's time;
// README.md records the reproduction.
func batchPoints(probe bool) []batchPoint {
	if probe {
		return []batchPoint{{960, 4, 0}, {100_000, 5, 0}, {10_000_000, 4, 0}, {240, 3, 16}}
	}
	return []batchPoint{
		{960, 3, 0}, {960, 5, 0}, {960, 8, 0},
		{10_000, 4, 0}, {10_000, 6, 0},
		{100_000, 5, 0}, {100_000, 8, 0},
		{1_000_000, 3, 0}, {1_000_000, 6, 0}, {1_000_000, 8, 0},
		{10_000_000, 4, 0}, {10_000_000, 5, 0}, {10_000_000, 7, 0},
		{240, 3, 16},
	}
}

// batchCap is the interaction cap of every batch trial, far above what
// n = 10⁷ needs (about 10¹⁴ interactions at k = 7).
const batchCap = 1 << 62

// batchTrials is how many seeds each point of a timed pass runs. One
// trial's cost varies by 10–30% with its seed (up to 50% at the
// matching-mode point), and with one trial a point the pass total
// varied by about 8% (coefficient of variation) from workload seed to
// workload seed; four halve that.
const batchTrials = 4

// batchSpecs gives each point batchTrials trials (one in a probe),
// seeded StreamSeed(seed, point, trial), the harness's sweep derivation.
func batchSpecs(seed uint64, probe bool) [][]harness.TrialSpec {
	trials := batchTrials
	if probe {
		trials = 1
	}
	var points [][]harness.TrialSpec
	for i, p := range batchPoints(probe) {
		var specs []harness.TrialSpec
		for t := 0; t < trials; t++ {
			specs = append(specs, harness.TrialSpec{
				N: p.n, K: p.k,
				Seed:            rng.StreamSeed(seed, uint64(i), uint64(t)),
				MaxInteractions: batchCap,
				Engine:          harness.EngineBatch,
				BatchSize:       p.size,
			})
		}
		points = append(points, specs)
	}
	return points
}

// pointOp runs one point's trials, in order, as one operation. Nobody
// waits on a single batch trial, and the trials of a point together
// vary far less with the workload seed than one trial does.
func pointOp(specs []harness.TrialSpec) op {
	trials := make([]op, len(specs))
	for i, s := range specs {
		trials[i] = trialOp(s)
	}
	s := specs[0]
	name := fmt.Sprintf("%d trials n=%d k=%d engine=%s", len(specs), s.N, s.K, s.Engine)
	return op{name: name, run: func(ctx context.Context, r *report) (work, error) {
		total := work{}
		for _, t := range trials {
			w, err := t.run(ctx, r)
			if err != nil {
				return nil, err
			}
			total.add(w)
		}
		return total, nil
	}}
}

func runScaleBatch(cfg config) (*report, error) {
	r := newReport("scale-batch")
	points := batchSpecs(cfg.seed, cfg.probe)
	ops, err := setupRuns(r, func() ([]op, error) {
		ops := make([]op, len(points))
		for i, specs := range points {
			ops[i] = pointOp(specs)
		}
		// Warm-up: one n = 960 trial per k of the pass, which builds
		// every protocol table and batch code path before timing.
		for _, k := range []int{3, 4, 5, 6, 7, 8} {
			if _, err := harness.RunTrialCtx(context.Background(), harness.TrialSpec{
				N: 960, K: k, Seed: rng.StreamSeed(cfg.seed, 1<<20, uint64(k)),
				MaxInteractions: batchCap, Engine: harness.EngineBatch,
			}, harness.RunOptions{}); err != nil {
				return nil, fmt.Errorf("warm-up k=%d: %w", k, err)
			}
		}
		return ops, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("pass: %d points of batch trials\n", len(ops))
	if !cfg.trace {
		opRounds(r, ops, cfg.budget)
		return r, r.setRSS()
	}
	budget := cfg.budget * 6 / 10
	if cfg.probe {
		budget = 0
	}
	var col *span.Collector
	tracedRounds(r, ops, budget, func() func(i int) (context.Context, func()) {
		col = span.NewCollector(nil)
		traced := opTrace(col)
		return func(i int) (context.Context, func()) {
			if points[i][0].N > tracedMaxN {
				return context.Background(), func() {}
			}
			return traced(i)
		}
	})
	f := buildForest(col.Export())
	f.printRollup()
	var specs []harness.TrialSpec
	for _, p := range points {
		specs = append(specs, p...)
	}
	return r, batchLayers(r, specs)
}

// tracedMaxN bounds the trials a traced pass traces. A traced batch
// trial emits one phase span per #gk milestone, n/k of them, so tracing
// n = 10⁷ would hold millions of spans in memory; larger trials run
// untraced inside the traced rounds.
const tracedMaxN = 100_000

// batchLayers drives every spec of the pass directly on countsim.Batch,
// timing the invariant check (the harness's per-boundary audit) and the
// stability predicate. The direct runs must take exactly the
// interactions the harness runs of the same specs took.
func batchLayers(r *report, specs []harness.TrialSpec) error {
	var inter, batches, seq, clamped uint64
	var wall, check, pred time.Duration
	for _, s := range specs {
		p := harness.Proto(s.K)
		stable, err := p.StableChecker(s.N)
		if err != nil {
			return err
		}
		b, err := countsim.NewBatch(p, s.N, s.Seed, countsim.BatchOptions{
			Size: s.BatchSize,
			Check: func(counts []int) error {
				t0 := time.Now()
				err := p.CheckInvariant(counts)
				check += time.Since(t0)
				return err
			},
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		ok, err := b.RunUntilCtx(context.Background(), func(counts []int) bool {
			t0 := time.Now()
			v := stable(counts)
			pred += time.Since(t0)
			return v
		}, s.MaxInteractions)
		wall += time.Since(t0)
		if err != nil || !ok {
			return fmt.Errorf("direct batch run n=%d k=%d: converged=%t err=%v", s.N, s.K, ok, err)
		}
		inter += b.Interactions()
		batches += b.Batches()
		seq += b.SeqSteps()
		clamped += b.Clamped()
	}
	if want := r.work["pass"]["interactions"]; inter != want {
		r.violate("direct batch runs took %d interactions, the harness runs of the same specs %d", inter, want)
	}
	r.work["direct batch runs"] = work{"interactions": inter, "batches": batches, "seq_steps": seq, "clamped": clamped}
	r.set("batch.batches", float64(batches), "count")
	r.set("batch.seq_steps", float64(seq), "count")
	r.set("batch.clamped", float64(clamped), "count")
	r.set("batch.us_per_batch", ratio(float64(wall.Microseconds()), float64(batches+seq)), "us")
	r.set("batch.audit_share", ratio(float64(check), float64(wall)), "ratio")
	r.set("batch.pred_share", ratio(float64(pred), float64(wall)), "ratio")
	return nil
}

// Package harness runs the paper's experiments: it fans simulation trials
// out over a worker pool, aggregates them into per-point statistics, and
// hands the experiment binaries ready-to-render series for every figure of
// Section 5 (and for the ablations DESIGN.md adds).
//
// Seeding discipline: every trial's generator is derived as
// StreamSeed(rootSeed, pointIndex, trialIndex), so any single cell of any
// figure can be reproduced in isolation, and results are independent of
// worker count and scheduling order.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/countsim"
	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Engine selects the simulation backend for a trial.
type Engine uint8

// The available engines.
const (
	// EngineAgent is the agent-level engine (internal/sim): every
	// scheduled encounter is walked explicitly. The default.
	EngineAgent Engine = iota
	// EngineCount is the count-based engine (internal/countsim): null
	// runs are skipped geometrically. Identical output distribution,
	// much faster on null-dominated workloads (large n, large k).
	EngineCount
	// EngineBatch is the batched count engine (countsim.Batch): whole
	// windows of interactions are drawn and applied per O(S²) batch,
	// with invariants re-checked only at batch boundaries and automatic
	// sequential fallback near stability. BatchSize selects the mode:
	// 0 is the adaptive aggregate mode (approximate within batches,
	// exact in every invariant — the differential tests in
	// internal/countsim pin down the contract), a positive size is the
	// exact fixed-size matching mode.
	EngineBatch
)

// TrialSpec describes one simulation trial of the k-partition protocol.
type TrialSpec struct {
	N, K int
	Seed uint64
	// MaxInteractions caps the run (0 = engine default).
	MaxInteractions uint64
	// Grouping requests per-grouping interaction marks (Figure 4).
	Grouping bool
	// Engine selects the backend (default EngineAgent).
	Engine Engine
	// BatchSize, meaningful only for EngineBatch, selects fixed-size
	// matching mode with this many disjoint pairs per batch (2·BatchSize
	// ≤ N required); 0 selects adaptive aggregate mode. ValidateSpec
	// rejects a non-zero BatchSize on any other engine.
	BatchSize uint64
	// Topology restricts interactions to a graph (zero value: the
	// paper's complete graph). Non-complete topologies require
	// EngineAgent and an explicit MaxInteractions cap (scenario runs can
	// freeze short of uniformity; see TrialResult.Frozen).
	Topology TopologySpec
	// Fairness selects the scheduling regime (zero value: the paper's
	// uniform-random scheduler). FairnessWeak requires EngineAgent and
	// an explicit MaxInteractions cap.
	Fairness Fairness
	// Churn schedules mid-run population changes (zero value: none).
	// Requires EngineAgent, an explicit MaxInteractions cap, and a
	// topology that can be rebuilt at any size (complete, ring, star).
	Churn ChurnSpec
}

// TrialResult is the outcome of one trial.
type TrialResult struct {
	Spec         TrialSpec
	Interactions uint64
	Productive   uint64
	Converged    bool
	Spread       int
	// Marks holds NI_i (total interactions at the i-th grouping) when
	// Spec.Grouping was set.
	Marks []uint64
	// Attempts is how many executions it took to get this result (1 =
	// first try). Retried attempts run under deterministically re-derived
	// seeds (RetrySeed), recorded in Spec.Seed, so every result remains
	// reproducible from its own spec regardless of the retry history.
	Attempts int `json:",omitempty"`
	// Frozen reports that a restricted-topology run stopped because the
	// configuration group-froze (no reachable interaction can change any
	// agent's group again) WITHOUT reaching the uniform target — the
	// star-graph failure mode, surfaced as data rather than a timeout.
	Frozen bool `json:",omitempty"`
	// FinalN is the population size at the end of a scenario trial (a
	// restricted topology, weak fairness or churn; see HasScenario) — N
	// itself unless churn changed it. It is 0, and omitted, for trials
	// without a scenario.
	FinalN int `json:",omitempty"`
}

// protoCache shares immutable protocol tables across trials; building a
// table is O(k²) but there is no reason to do it 100 times per point.
type protoCache struct {
	mu sync.Mutex
	m  map[int]*core.Protocol // guarded by mu
}

var cache = protoCache{m: make(map[int]*core.Protocol)}

// Proto returns the shared uniform k-partition protocol instance for k.
func Proto(k int) *core.Protocol {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if p, ok := cache.m[k]; ok {
		return p
	}
	p := core.MustNew(k)
	cache.m[k] = p
	return p
}

// RunOptions is the execution policy of a trial or batch: deadlines,
// retries, journaling, progress. It deliberately lives OUTSIDE TrialSpec —
// the spec is a trial's reproducible identity (it is what the sweep
// journal hashes), while RunOptions only shapes how patiently the harness
// pursues that identity. The zero value means: no deadline, no retries,
// no journal — exactly the pre-resilience behavior.
type RunOptions struct {
	// TrialTimeout is the per-trial wall deadline; a trial (each attempt
	// separately) exceeding it is aborted with context.DeadlineExceeded.
	// 0 means no wall deadline.
	TrialTimeout time.Duration
	// Retries is how many additional attempts a transiently failed trial
	// gets. Each retry runs under RetrySeed(seed, attempt) so the retry
	// stream is itself deterministic. Invalid-spec errors (ErrInvalidSpec)
	// and batch cancellation are never retried.
	Retries int
	// Backoff is the base delay before the first retry, doubling per
	// attempt and capped at MaxRetryBackoff; 0 means DefaultRetryBackoff.
	// The sleep respects cancellation.
	Backoff time.Duration
	// Journal, when non-nil, is consulted before running each trial of a
	// batch (completed trials are returned from the journal instead of
	// re-run) and appended to after each success — the sweep
	// checkpoint/resume mechanism.
	Journal *Journal
	// Progress, when non-zero, emits a progress report every Progress
	// interactions (count engine: at the first productive step past each
	// multiple). Used by the scale binary for hours-long single trials.
	Progress uint64
}

// Retry/backoff tuning shared by every binary.
const (
	// DefaultRetryBackoff is the base retry delay when Backoff is 0.
	DefaultRetryBackoff = 50 * time.Millisecond
	// MaxRetryBackoff caps the exponential backoff growth.
	MaxRetryBackoff = 2 * time.Second
)

// ErrInvalidSpec marks trial failures that no retry can fix (bad n/k,
// malformed spec); RunTrialCtx fails such trials immediately.
var ErrInvalidSpec = errors.New("harness: invalid trial spec")

// RetrySeed deterministically derives the seed of the attempt-th retry
// (attempt >= 1) of a trial originally seeded with seed. Keeping the
// derivation pure means a resumed or re-run sweep retries identically,
// so results stay reproducible even through failure paths.
func RetrySeed(seed uint64, attempt int) uint64 {
	return rng.StreamSeed(seed, 0x9e7291, uint64(attempt))
}

// backoffDelay is the sleep before retry number attempt (1-based).
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	d := base << (attempt - 1)
	if d <= 0 || d > MaxRetryBackoff {
		d = MaxRetryBackoff
	}
	return d
}

// sleepCtx waits d or until ctx fires, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RunTrial executes one trial to stability (or the interaction cap),
// recording per-trial metrics when a registry is installed (SetMetrics).
func RunTrial(spec TrialSpec) (TrialResult, error) {
	return RunTrialCtx(context.Background(), spec, RunOptions{})
}

// RunTrialCtx executes one trial under ctx with the given policy: each
// attempt gets opts.TrialTimeout of wall clock, transient failures are
// retried up to opts.Retries times under deterministically re-derived
// seeds, and per-trial metrics (including retry/timeout counters) are
// recorded when a registry is installed. The returned result's Spec
// carries the seed that actually produced it.
//
// When ctx carries a span (span.FromContext), the run is traced: a
// "trial" span with one "attempt" child per execution (retries show up
// as extra attempts under their re-derived seeds), each attempt holding
// its engine span and per-#gk phase spans. The span tree's identity is
// deterministic for a fixed spec; only the wall stamps, taken here at
// the harness edge, vary run to run.
func RunTrialCtx(ctx context.Context, spec TrialSpec, opts RunOptions) (TrialResult, error) {
	reg := Metrics()
	tspan := span.FromContext(ctx).Child("trial")
	tspan.SetAttr("n", fmt.Sprint(spec.N)).
		SetAttr("k", fmt.Sprint(spec.K)).
		SetAttr("seed", fmt.Sprintf("%#x", spec.Seed)).
		SetAttr("engine", spec.Engine.String())
	if spec.HasScenario() {
		tspan.SetAttr("topology", spec.Topology.String()).
			SetAttr("fairness", spec.Fairness.String())
		if spec.Churn.Enabled() {
			tspan.SetAttr("churn", spec.Churn.String())
		}
	}
	tsw := span.StartWall()
	endTrial := func(res TrialResult, err error) (TrialResult, error) {
		if err != nil {
			tspan.SetAttr("outcome", "error")
		} else {
			tspan.SetAttr("outcome", "ok").
				SetAttr("converged", fmt.Sprint(res.Converged)).
				SetAttr("attempts", fmt.Sprint(res.Attempts))
			tspan.SetSeq(0, res.Interactions)
		}
		tsw.StopInto(tspan)
		tspan.End()
		return res, err
	}
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			reg.Counter("harness/canceled").Inc()
			return endTrial(TrialResult{}, err)
		}
		tctx := ctx
		cancel := context.CancelFunc(nil)
		if opts.TrialTimeout > 0 {
			tctx, cancel = context.WithTimeout(ctx, opts.TrialTimeout)
		}
		aspan := tspan.Child("attempt").
			SetAttr("attempt", fmt.Sprint(attempt+1)).
			SetAttr("seed", fmt.Sprintf("%#x", spec.Seed))
		asw := span.StartWall()
		start := time.Now()
		res, err := runTrial(span.NewContext(tctx, aspan), spec, opts)
		wall := time.Since(start)
		asw.StopInto(aspan)
		if err != nil {
			aspan.SetAttr("outcome", "error")
		} else {
			aspan.SetSeq(0, res.Interactions)
		}
		aspan.End()
		if cancel != nil {
			cancel()
		}
		observeTrial(reg, res, err, wall)
		if err == nil {
			res.Attempts = attempt + 1
			return endTrial(res, nil)
		}
		if ctx.Err() != nil {
			// The batch (not this trial's deadline) was cancelled.
			reg.Counter("harness/canceled").Inc()
			return endTrial(TrialResult{}, ctx.Err())
		}
		if errors.Is(err, context.DeadlineExceeded) {
			reg.Counter("harness/timeouts").Inc()
			err = fmt.Errorf("harness: n=%d k=%d seed=%#x: attempt %d exceeded trial timeout %v: %w",
				spec.N, spec.K, spec.Seed, attempt+1, opts.TrialTimeout, err)
		}
		if errors.Is(err, ErrInvalidSpec) || attempt >= opts.Retries {
			return endTrial(TrialResult{}, err)
		}
		attempt++
		reg.Counter("harness/retries").Inc()
		spec.Seed = RetrySeed(spec.Seed, attempt)
		if serr := sleepCtx(ctx, backoffDelay(opts.Backoff, attempt)); serr != nil {
			reg.Counter("harness/canceled").Inc()
			return endTrial(TrialResult{}, serr)
		}
	}
}

func runTrial(ctx context.Context, spec TrialSpec, ropts RunOptions) (TrialResult, error) {
	p := Proto(spec.K)
	target, err := p.TargetCounts(spec.N)
	if err != nil {
		return TrialResult{}, fmt.Errorf("%w: n=%d k=%d: %v", ErrInvalidSpec, spec.N, spec.K, err)
	}
	// The scenario axes are validated on the execution path too, not just
	// at admission: a caller that skips ValidateSpec still gets
	// ErrInvalidSpec (never a bogus run, never a retry) for an
	// inconsistent scenario spec.
	if err := validateScenario(spec); err != nil {
		return TrialResult{}, err
	}
	if spec.HasScenario() {
		// Restricted topology, adversarial fairness, or churn: the
		// scenario runner (scenario.go). validateScenario rejects the
		// count engines for scenarios, so this dispatch happens first.
		return runScenarioTrial(ctx, p, spec, ropts)
	}
	ct := sim.NewCountTarget(p.CanonMap(), target)
	if spec.Engine == EngineCount || spec.Engine == EngineBatch {
		return runCountTrial(ctx, p, spec, ct, ropts)
	}
	w := newTrialWatch(ctx, p, spec, "engine/agent", ropts)
	opts := sim.Options{MaxInteractions: spec.MaxInteractions, Ctx: ctx, Hooks: w.hooks()}
	res, err := sim.Run(population.New(p, spec.N), sched.NewRandom(spec.Seed), ct, opts)
	return w.finish(res.Interactions, res.Productive, res.Converged, res.Spread(), err)
}

// countEngine is the run-loop surface shared by the sequential count
// engine (countsim.Sim) and the batched one (countsim.Batch); runCountTrial
// drives either through it.
type countEngine interface {
	RunUntilCtx(ctx context.Context, pred func(counts []int) bool, maxInteractions uint64) (bool, error)
	Interactions() uint64
	Productive() uint64
	CountsView() []int
}

// runCountTrial runs a trial on the count-based engine (sequential or
// batched) until ct matches. The trial watch observes the gk count inside
// the stop predicate; on the batched engine the predicate only runs at
// batch boundaries, so marks and phase spans are boundary-granular there.
func runCountTrial(ctx context.Context, p *core.Protocol, spec TrialSpec, ct *sim.CountTarget, ropts RunOptions) (TrialResult, error) {
	var s countEngine
	engSpan := "engine/count"
	if spec.Engine == EngineBatch {
		// The batched engine re-checks the Lemma 1 invariant at every
		// batch boundary on top of its own null-weight audit: bulk
		// application must not be able to leave the reachable region
		// silently.
		b, err := countsim.NewBatch(p, spec.N, spec.Seed, countsim.BatchOptions{
			Size:  spec.BatchSize,
			Check: p.CheckInvariant,
		})
		if err != nil {
			return TrialResult{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
		s = b
		engSpan = "engine/batch"
	} else {
		seq, err := countsim.New(p, spec.N, spec.Seed)
		if err != nil {
			return TrialResult{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
		s = seq
	}
	maxI := spec.MaxInteractions
	if maxI == 0 {
		maxI = sim.DefaultMaxInteractions
	}
	w := newTrialWatch(ctx, p, spec, engSpan, ropts)
	pred := func(counts []int) bool {
		if w.armed() {
			w.observe(counts[w.gk], s.Interactions(), s.Productive(), func() int {
				return population.SpreadOf(p.GroupSizesFromCounts(counts))
			})
		}
		return ct.Matches(counts)
	}
	ok, err := s.RunUntilCtx(ctx, pred, maxI)
	return w.finish(s.Interactions(), s.Productive(), ok,
		population.SpreadOf(p.GroupSizesFromCounts(s.CountsView())), err)
}

// RunMany executes specs over a worker pool and returns results in input
// order. workers <= 0 selects GOMAXPROCS. Every spec is attempted; the
// first error is returned alongside the full result slice.
func RunMany(specs []TrialSpec, workers int) ([]TrialResult, error) {
	return RunManyCtx(context.Background(), specs, workers, RunOptions{})
}

// RunManyCtx executes specs over a worker pool under ctx and returns
// results in input order. workers <= 0 selects GOMAXPROCS. Results are a
// pure function of the specs — independent of worker count, scheduling
// order, journal hits, and retry history (the differential tests pin
// this down).
//
// With opts.Journal set, trials whose spec key is already journaled are
// returned without re-running (counted in harness/resumed), and each
// freshly completed trial is appended to the journal as soon as it
// finishes — so a crash or cancellation loses at most the in-flight
// trials.
//
// Cancellation is graceful: no new trials are dispatched, in-flight
// trials abort at their next poll, completed results (and the journal)
// are retained, and ctx.Err() is returned.
func RunManyCtx(ctx context.Context, specs []TrialSpec, workers int, opts RunOptions) ([]TrialResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]TrialResult, len(specs))
	errs := make([]error, len(specs))
	done := make([]bool, len(specs))
	if opts.Journal != nil {
		reg := Metrics()
		for i := range specs {
			if e, ok := opts.Journal.Lookup(specs[i]); ok {
				results[i], done[i] = e.Result, true
				reg.Counter("harness/resumed").Inc()
			}
		}
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				results[i], errs[i] = RunTrialCtx(ctx, specs[i], opts)
				if errs[i] == nil && opts.Journal != nil {
					errs[i] = opts.Journal.Append(specs[i], results[i], time.Since(start))
				}
			}
		}()
	}
dispatch:
	for i := range specs {
		if done[i] {
			continue
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("harness: batch interrupted: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Point is one aggregated parameter point of an experiment.
type Point struct {
	N, K   int
	Trials int
	// Mean and CI95 are over interactions-to-stability of the trials.
	Mean float64
	CI95 float64
	Min  uint64
	Max  uint64
	// Median and P90 expose the run-length distribution's shape: the
	// stabilization time is heavy-tailed (a late m-m collision restarts
	// k chains), so the mean alone overstates the typical run.
	Median float64
	P90    float64
	// MeanDeltas[i] is the mean of NI'_(i+1) (per-grouping interaction
	// cost) over trials; only filled for grouping experiments. The last
	// entry is the mean remainder tail when n mod k != 0.
	MeanDeltas []float64
	// Unconverged counts trials that hit the interaction cap.
	Unconverged int
}

// Aggregate folds a point's trials into a Point.
func Aggregate(n, k int, trials []TrialResult) Point {
	pt := Point{N: n, K: k, Trials: len(trials)}
	if len(trials) == 0 {
		return pt
	}
	// Min and Max range over the converged trials only, like Mean; both
	// stay 0 when none converged.
	xs := make([]float64, 0, len(trials))
	for _, tr := range trials {
		if !tr.Converged {
			pt.Unconverged++
			continue
		}
		if len(xs) == 0 || tr.Interactions < pt.Min {
			pt.Min = tr.Interactions
		}
		if tr.Interactions > pt.Max {
			pt.Max = tr.Interactions
		}
		xs = append(xs, float64(tr.Interactions))
	}
	pt.Mean = meanOf(xs)
	pt.CI95 = ci95Of(xs)
	if len(xs) > 0 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		pt.Median = stats.Quantile(sorted, 0.5)
		pt.P90 = stats.Quantile(sorted, 0.9)
	}

	// Per-grouping decomposition: average NI'_i across trials. Trials of
	// the same (n, k) all have the same number of groupings ⌊n/k⌋ and the
	// same presence of a remainder tail, so rows align.
	groupings := 0
	for _, tr := range trials {
		if len(tr.Marks) > groupings {
			groupings = len(tr.Marks)
		}
	}
	if groupings > 0 {
		withTail := groupings
		hasTail := n%k != 0
		if hasTail {
			withTail++
		}
		sums := make([]float64, withTail)
		counts := make([]int, withTail)
		for _, tr := range trials {
			if !tr.Converged || len(tr.Marks) == 0 {
				continue
			}
			deltas := (&sim.GroupingCounter{Marks: tr.Marks}).Deltas(tr.Interactions)
			for i, d := range deltas {
				if i < len(sums) {
					sums[i] += float64(d)
					counts[i]++
				}
			}
		}
		pt.MeanDeltas = make([]float64, withTail)
		for i := range sums {
			if counts[i] > 0 {
				pt.MeanDeltas[i] = sums[i] / float64(counts[i])
			}
		}
	}
	return pt
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ci95Of(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := meanOf(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	sd := ss / float64(len(xs)-1)
	return 1.96 * math.Sqrt(sd/float64(len(xs)))
}

// SweepSpec describes one aggregated parameter point of a sweep: `Trials`
// trials at (N, K), seeded from (Seed, PointID, trial).
type SweepSpec struct {
	N, K, Trials    int
	Seed, PointID   uint64
	Grouping        bool
	Workers         int
	MaxInteractions uint64
	Engine          Engine
	BatchSize       uint64
	Topology        TopologySpec
	Fairness        Fairness
	Churn           ChurnSpec
}

// Specs expands the sweep point into its per-trial specs, in trial order.
func (s SweepSpec) Specs() []TrialSpec {
	specs := make([]TrialSpec, s.Trials)
	for t := range specs {
		specs[t] = TrialSpec{
			N: s.N, K: s.K,
			Seed:            rng.StreamSeed(s.Seed, s.PointID, uint64(t)),
			Grouping:        s.Grouping,
			MaxInteractions: s.MaxInteractions,
			Engine:          s.Engine,
			BatchSize:       s.BatchSize,
			Topology:        s.Topology,
			Fairness:        s.Fairness,
			Churn:           s.Churn,
		}
	}
	return specs
}

// SweepPoint runs one sweep point and aggregates it; the
// context/journal-aware form is SweepPointCtx.
func SweepPoint(n, k, trials int, seed, pointID uint64, grouping bool, workers int, maxInteractions uint64, engine Engine) (Point, error) {
	return SweepPointCtx(context.Background(), SweepSpec{
		N: n, K: k, Trials: trials, Seed: seed, PointID: pointID,
		Grouping: grouping, Workers: workers,
		MaxInteractions: maxInteractions, Engine: engine,
	}, RunOptions{})
}

// SweepPointCtx runs a sweep point under ctx with the given resilience
// policy and aggregates the trials.
func SweepPointCtx(ctx context.Context, s SweepSpec, opts RunOptions) (Point, error) {
	results, err := RunManyCtx(ctx, s.Specs(), s.Workers, opts)
	if err != nil {
		return Point{}, err
	}
	return Aggregate(s.N, s.K, results), nil
}

package harness

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// trialWatch is the one observer of a trial, whatever engine runs it.
// The engine names its span; the watch owns everything observed along
// the way — progress reports, the #gk milestones behind Figure 4's NI_i
// (Marks when spec.Grouping, one "phase/grouping" span each when
// traced) — and the epilogue that ends the engine span and builds the
// TrialResult. The agent and scenario engines install it as their one
// sim.Hook, the count engines call observe from their stop predicate.
//
// Everything it records is observational: spans and progress lines
// never feed back into the run, and Marks is set only when the spec asks
// for it, so traced and untraced results are byte-identical.
type trialWatch struct {
	spec  TrialSpec
	gk    protocol.State
	espan *span.ActiveSpan
	prog  *obs.Progress
	// gc is nil when neither marks nor phase spans are wanted.
	gc     *sim.GroupingCounter
	phases int // milestones already emitted as phase spans
}

// newTrialWatch opens the engine span (a child of ctx's span, nil when
// untraced) and arms whatever observation the spec and options ask for.
func newTrialWatch(ctx context.Context, p *core.Protocol, spec TrialSpec, engine string, ropts RunOptions) *trialWatch {
	w := &trialWatch{spec: spec, gk: p.G(spec.K), espan: span.FromContext(ctx).Child(engine)}
	if spec.Grouping || w.espan != nil {
		w.gc = &sim.GroupingCounter{Watch: w.gk}
	}
	if ropts.Progress > 0 {
		w.prog = &obs.Progress{
			Every: ropts.Progress,
			Label: fmt.Sprintf("n=%d k=%d seed=%#x", spec.N, spec.K, spec.Seed),
		}
	}
	return w
}

// observe takes one look at the run: gk is the current #gk count after
// interactions encounters. spread is a thunk so only report lines pay
// for the group sizes. It runs on every productive step of an observed
// trial, so the rare span work lives in emitPhases.
func (w *trialWatch) observe(gk int, interactions, productive uint64, spread func() int) {
	if w.prog != nil {
		w.prog.MaybeReport(interactions, productive, spread)
	}
	if w.gc != nil {
		w.gc.Observe(gk, interactions)
		if w.espan != nil && w.phases < len(w.gc.Marks) {
			w.emitPhases()
		}
	}
}

// emitPhases ends one "phase/grouping" span per milestone not yet
// emitted. Phase i covers the interaction interval (NI_(i−1), NI_i] in
// which the i-th complete group was assembled, on the engine's clock.
func (w *trialWatch) emitPhases() {
	for ; w.phases < len(w.gc.Marks); w.phases++ {
		var prev uint64
		if w.phases > 0 {
			prev = w.gc.Marks[w.phases-1]
		}
		w.espan.Child("phase/grouping").
			SetAttr("index", strconv.Itoa(w.phases+1)).
			SetSeq(prev, w.gc.Marks[w.phases]).
			End()
	}
}

// armed reports whether there is anything to observe; engines skip
// observe (and the agent engines the hook) when there is not.
func (w *trialWatch) armed() bool { return w.gc != nil || w.prog != nil }

// hooks returns the agent engines' hook list: the watch itself when it
// is armed, none otherwise, so plain trials keep running with zero hooks.
func (w *trialWatch) hooks() []sim.Hook {
	if !w.armed() {
		return nil
	}
	return []sim.Hook{w}
}

// Init implements sim.Hook; the watch needs no look at the initial
// configuration (#gk starts at zero and churn never raises it).
func (w *trialWatch) Init(*population.Population) {}

// OnStep implements sim.Hook.
func (w *trialWatch) OnStep(pop *population.Population, s sim.StepInfo) {
	// A null encounter cannot move #gk; only progress wants it.
	if s.Changed || w.prog != nil {
		w.observe(pop.Count(w.gk), pop.Interactions(), pop.Productive(), pop.Spread)
	}
}

// finish stamps and ends the engine span with how far the run got, then
// builds the trial's result; on err the result is zero and err passes
// through.
func (w *trialWatch) finish(interactions, productive uint64, converged bool, spread int, err error) (TrialResult, error) {
	if w.espan != nil {
		w.espan.SetSeq(0, interactions).
			SetAttr("interactions", fmt.Sprint(interactions)).
			SetAttr("productive", fmt.Sprint(productive))
		w.espan.End()
	}
	if err != nil {
		return TrialResult{}, err
	}
	res := TrialResult{
		Spec:         w.spec,
		Interactions: interactions,
		Productive:   productive,
		Converged:    converged,
		Spread:       spread,
	}
	if w.spec.Grouping {
		res.Marks = w.gc.Marks
	}
	return res, nil
}

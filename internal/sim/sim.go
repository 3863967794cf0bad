// Package sim is the sequential simulation engine: it drives a population
// under a scheduler until a stop condition fires, counting interactions
// exactly the way the paper's Section 5 does (every scheduled encounter
// counts, productive or not).
//
// The engine is deliberately protocol-agnostic. Protocol-specific knowledge
// — e.g. the closed-form stable signature of the k-partition protocol —
// enters through the StopCondition interface, so the same engine runs the
// paper's protocol, the bipartition special case, and every baseline.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// StepInfo describes one applied interaction for stop conditions and hooks.
type StepInfo struct {
	I, J    int           // agent indices (initiator, responder)
	Before  protocol.Pair // states before the encounter
	After   protocol.Pair // states after the encounter
	Changed bool          // whether any state changed
}

// StopCondition decides when a run is finished. Init is called once before
// the first step; Step is called after every applied interaction and
// returns true to stop. Implementations may keep state and are not safe
// for concurrent use.
type StopCondition interface {
	Init(pop *population.Population)
	Step(pop *population.Population, s StepInfo) bool
}

// Hook observes every applied interaction (after the stop condition).
type Hook interface {
	Init(pop *population.Population)
	OnStep(pop *population.Population, s StepInfo)
}

// Options configures a run.
type Options struct {
	// MaxInteractions aborts a run that has not stopped after this many
	// encounters; 0 means DefaultMaxInteractions. A run hitting the cap
	// returns Result.Converged == false rather than an error, because
	// adversarial-scheduler experiments hit it on purpose.
	MaxInteractions uint64
	// Hooks are invoked on every step, in order.
	Hooks []Hook
	// InvariantEvery, if > 0, calls Invariant on the population every so
	// many interactions and aborts with an error if it fails. Used by
	// tests to fuzz the Lemma 1 invariant cheaply.
	InvariantEvery uint64
	// Invariant is the predicate checked every InvariantEvery steps.
	Invariant func(pop *population.Population) error
	// Ctx, when non-nil, lets a run be cancelled (or deadlined) from the
	// outside. It is polled every ctxPollMask+1 applied interactions —
	// cheap enough to be free on the hot loop, frequent enough that a
	// SIGINT or wall deadline lands within microseconds — and a fired
	// context aborts the run with its error and a partial Result.
	Ctx context.Context
}

// ctxPollMask sets the context-poll cadence: Ctx.Err is consulted when
// Interactions&ctxPollMask == 0 (every 4096 encounters).
const ctxPollMask = 1<<12 - 1

// DefaultMaxInteractions bounds runs whose Options leave the cap at zero.
// The costliest standard workload (Fig. 6 at n=960, large k) needs on the
// order of 10^8–10^9 interactions, so the default sits above that.
const DefaultMaxInteractions = 4_000_000_000

// Result summarizes a run.
type Result struct {
	// Interactions is the total number of encounters applied, the paper's
	// time metric.
	Interactions uint64
	// Productive is the number of encounters that changed some state.
	Productive uint64
	// Converged reports whether the stop condition fired (false: the run
	// hit MaxInteractions first).
	Converged bool
	// FinalCounts is the state-count vector at the end of the run.
	FinalCounts []int
	// GroupSizes is the group-size vector at the end of the run.
	GroupSizes []int
}

// Spread returns max−min of the final group sizes.
func (r Result) Spread() int { return population.SpreadOf(r.GroupSizes) }

// ErrInvariant wraps invariant-check failures reported by Run.
var ErrInvariant = errors.New("sim: invariant violated")

// Run drives pop under s until stop fires or the interaction cap is hit.
// The population is mutated in place; callers wanting a fresh run each time
// should pass a fresh or Reset population.
func Run(pop *population.Population, s sched.Scheduler, stop StopCondition, opts Options) (Result, error) {
	maxI := opts.MaxInteractions
	if maxI == 0 {
		maxI = DefaultMaxInteractions
	}
	stop.Init(pop)
	for _, h := range opts.Hooks {
		h.Init(pop)
	}
	// The initial configuration may already satisfy the stop condition
	// (e.g. CountTarget with a degenerate target); probe it with a
	// zero-step check by running the loop only afterwards. StopCondition
	// has no "check now" method by design — Init implementations that can
	// be pre-satisfied record it and report on the first Step — so the
	// engine asks conditions that implement the optional interface.
	if pre, ok := stop.(interface{ Satisfied() bool }); ok && pre.Satisfied() {
		return finish(pop, true), nil
	}

	var info StepInfo
	for pop.Interactions() < maxI {
		if opts.Ctx != nil && pop.Interactions()&ctxPollMask == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return finish(pop, false), err
			}
		}
		i, j := s.Next(pop)
		p, q := pop.State(i), pop.State(j)
		changed := pop.Interact(i, j)
		info = StepInfo{
			I: i, J: j,
			Before:  protocol.Pair{P: p, Q: q},
			After:   protocol.Pair{P: pop.State(i), Q: pop.State(j)},
			Changed: changed,
		}
		done := stop.Step(pop, info)
		for _, h := range opts.Hooks {
			h.OnStep(pop, info)
		}
		if opts.InvariantEvery > 0 && pop.Interactions()%opts.InvariantEvery == 0 && opts.Invariant != nil {
			if err := opts.Invariant(pop); err != nil {
				return finish(pop, false), fmt.Errorf("%w after %d interactions: %v", ErrInvariant, pop.Interactions(), err)
			}
		}
		if done {
			return finish(pop, true), nil
		}
	}
	return finish(pop, false), nil
}

func finish(pop *population.Population, converged bool) Result {
	return Result{
		Interactions: pop.Interactions(),
		Productive:   pop.Productive(),
		Converged:    converged,
		FinalCounts:  pop.Counts(),
		GroupSizes:   pop.GroupSizes(),
	}
}

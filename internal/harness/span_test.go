package harness

import (
	"context"
	"testing"

	"repro/internal/obs/span"
)

// traceTrial runs one traced trial and returns the exported spans.
func traceTrial(t *testing.T, spec TrialSpec) []span.Span {
	t.Helper()
	col := span.NewCollector(nil)
	tr := col.TraceForSpec(SpecKey(spec))
	root := tr.Root("request")
	ctx := span.NewContext(context.Background(), root)
	if _, err := RunTrialCtx(ctx, spec, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	return col.Export()
}

// identity strips the wall fields, which are edge-captured and vary run
// to run; everything else in a span is deterministic for a fixed spec.
func identity(spans []span.Span) []span.Span {
	out := append([]span.Span(nil), spans...)
	for i := range out {
		out[i].WallStartUS, out[i].WallDurUS = 0, 0
	}
	return out
}

func spansEqual(a, b []span.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Trace != y.Trace || x.ID != y.ID || x.Parent != y.Parent || x.Name != y.Name ||
			x.StartSeq != y.StartSeq || x.EndSeq != y.EndSeq || len(x.Attrs) != len(y.Attrs) {
			return false
		}
		for j := range x.Attrs {
			if x.Attrs[j] != y.Attrs[j] {
				return false
			}
		}
	}
	return true
}

// TestTrialSpanTreeDeterministic pins the acceptance property: two runs
// of the same spec export identical span trees — same trace ID, span
// IDs, structure, names, attrs, and logical intervals — on both engines.
func TestTrialSpanTreeDeterministic(t *testing.T) {
	for _, eng := range []Engine{EngineAgent, EngineCount} {
		spec := TrialSpec{N: 24, K: 4, Seed: 7, Engine: eng}
		a := identity(traceTrial(t, spec))
		b := identity(traceTrial(t, spec))
		if !spansEqual(a, b) {
			t.Errorf("engine %v: two runs of the same spec exported different trees:\n%v\n%v", eng, a, b)
		}
	}
}

// TestTrialSpanTreeShape checks the exported tree is complete and
// properly nested: request → trial → attempt → engine → one
// phase/grouping span per #gk milestone, with every child's logical
// interval inside its parent's and every child's wall interval inside
// its parent's (where both are stamped).
func TestTrialSpanTreeShape(t *testing.T) {
	for _, tc := range []struct {
		spec TrialSpec
		eng  string
		// want counts the spans beyond request, trial, attempt and the
		// engine span (one each).
		want map[string]int
	}{
		// n=24, k=4 converges to exactly 6 complete groupings; at this
		// size the batch engine runs its sequential fallback, so its
		// predicate sees every milestone too.
		{TrialSpec{N: 24, K: 4, Seed: 7, Engine: EngineAgent}, "engine/agent", map[string]int{"phase/grouping": 6}},
		{TrialSpec{N: 24, K: 4, Seed: 7, Engine: EngineCount}, "engine/count", map[string]int{"phase/grouping": 6}},
		{TrialSpec{N: 24, K: 4, Seed: 7, Engine: EngineBatch}, "engine/batch", map[string]int{"phase/grouping": 6}},
		// Graceful churn on the complete graph: 15 agents, 3 free ones
		// leave at interaction 20, and the 12 survivors settle into 4
		// groups. The phases run on the trial's cumulative clock across
		// both segments.
		{TrialSpec{N: 15, K: 3, Seed: 3, MaxInteractions: 5_000_000, Churn: ChurnSpec{At: 20, Events: 1, Leaves: 3}},
			"engine/scenario", map[string]int{"segment": 2, "phase/grouping": 4}},
	} {
		spec := tc.spec
		spans := traceTrial(t, spec)

		byID := make(map[string]span.Span)
		count := make(map[string]int)
		for _, s := range spans {
			byID[s.ID] = s
			count[s.Name]++
		}
		want := map[string]int{"request": 1, "trial": 1, "attempt": 1, tc.eng: 1}
		for name, n := range tc.want {
			want[name] = n
		}
		for name, n := range want {
			if count[name] != n {
				t.Errorf("engine %v: %d %q spans, want %d (all: %v)", tc.eng, count[name], name, n, count)
			}
		}

		for _, s := range spans {
			if s.Parent == "" {
				if s.Name != "request" {
					t.Errorf("engine %v: root span is %q, want request", tc.eng, s.Name)
				}
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("engine %v: span %s/%s has missing parent %s", tc.eng, s.ID, s.Name, s.Parent)
				continue
			}
			if s.EndSeq > 0 && p.EndSeq > 0 {
				if s.StartSeq < p.StartSeq || s.EndSeq > p.EndSeq {
					t.Errorf("engine %v: %q seq [%d,%d] escapes parent %q [%d,%d]",
						tc.eng, s.Name, s.StartSeq, s.EndSeq, p.Name, p.StartSeq, p.EndSeq)
				}
			}
			if s.WallDurUS > 0 && p.WallDurUS > 0 {
				if s.WallStartUS < p.WallStartUS ||
					s.WallStartUS+s.WallDurUS > p.WallStartUS+p.WallDurUS {
					t.Errorf("engine %v: %q wall [%d,+%d] escapes parent %q [%d,+%d]",
						tc.eng, s.Name, s.WallStartUS, s.WallDurUS, p.Name, p.WallStartUS, p.WallDurUS)
				}
			}
		}

		// Phase spans partition the engine interval: contiguous, ordered,
		// ending at the engine span's end-of-convergence marks.
		var phases []span.Span
		for _, s := range spans {
			if s.Name == "phase/grouping" {
				phases = append(phases, s)
			}
		}
		var prev uint64
		for i, ph := range phases {
			if ph.StartSeq != prev {
				t.Errorf("engine %v: phase %d starts at %d, want %d (contiguous)", tc.eng, i+1, ph.StartSeq, prev)
			}
			if ph.EndSeq < ph.StartSeq {
				t.Errorf("engine %v: phase %d interval inverted", tc.eng, i+1)
			}
			if parent := byID[ph.Parent].Name; parent != tc.eng {
				t.Errorf("engine %v: phase %d nests under %q, want the engine span", tc.eng, i+1, parent)
			}
			prev = ph.EndSeq
		}
	}
}

// TestUntracedContextRunsClean pins the no-op path: without a span in
// the context the trial must behave exactly as before (and not panic).
func TestUntracedContextRunsClean(t *testing.T) {
	spec := TrialSpec{N: 12, K: 3, Seed: 1}
	traced := traceTrial(t, spec)
	res, err := RunTrialCtx(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("trial did not converge")
	}
	// Tracing must not perturb the result: compare against the traced run.
	tres, err := RunTrialCtx(span.NewContext(context.Background(), span.NewTrace("t").Root("r")), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactions != tres.Interactions || res.Productive != tres.Productive {
		t.Fatalf("tracing perturbed the result: %+v vs %+v", res, tres)
	}
	if len(traced) == 0 {
		t.Fatal("traced run exported nothing")
	}
}

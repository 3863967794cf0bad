package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"repro/internal/harness"
)

// tiny is the configuration the tests run at: every workload at its
// probe size, the fewest rounds, the committed twin baseline.
func tiny(trace bool) config {
	return config{seed: 7, trace: trace, probe: true, baseline: "../TWIN_baseline.json"}
}

// benchDoc is the part of BENCHMARK.json the tests compare against.
type benchDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchDoc(t *testing.T) benchDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestEveryMetricPrinted runs every workload untraced and traced at tiny
// size and checks that the result carries exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	doc := loadBenchDoc(t)
	for _, w := range doc.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	// Every workload, serve-mix too, prints every metric.
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(w, tiny(trace), "test")
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := doc.EndToEnd
			if trace {
				want = doc.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestWorkCountersRepeat checks that a pass's work is a pure function of
// the seed: two runs at one seed record identical counters, traced or
// not, and another seed records different ones.
func TestWorkCountersRepeat(t *testing.T) {
	run := func(seed uint64, trace bool) work {
		cfg := tiny(trace)
		cfg.seed = seed
		r, err := runPaperSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.violations) != 0 {
			t.Fatalf("seed %d trace=%t: %v", seed, trace, r.violations)
		}
		return r.work["pass"]
	}
	a, b, traced, other := run(3, false), run(3, false), run(3, true), run(4, false)
	if a["interactions"] == 0 || !sameWork(a, b) || !sameWork(a, traced) {
		t.Errorf("work differs at one seed: %v, %v, traced %v", a, b, traced)
	}
	if sameWork(a, other) {
		t.Errorf("seeds 3 and 4 did the same work: %v", a)
	}
}

// TestRoundsCatchChangedWork plants a pass whose work changes between
// rounds; the round check must flag it.
func TestRoundsCatchChangedWork(t *testing.T) {
	r := newReport("test")
	calls := uint64(0)
	ops := []op{{name: "drifting", run: func(context.Context, *report) (work, error) {
		calls++
		return work{"interactions": calls}, nil
	}}}
	opRounds(r, ops, 0)
	if len(r.violations) == 0 {
		t.Fatal("work that changed between rounds passed the check")
	}
}

// TestPlantedWrongOutputFails feeds the output checks wrong answers: an
// unconverged trial, a trial with spread 2, and a prediction whose
// reference disagrees.
func TestPlantedWrongOutputFails(t *testing.T) {
	spec := harness.TrialSpec{N: 12, K: 4, Seed: 1}
	for _, res := range []harness.TrialResult{
		{Spec: spec, Converged: false},
		{Spec: spec, Converged: true, Spread: 2},
	} {
		r := newReport("test")
		checkTrial(r, "planted", res)
		if len(r.violations) != 1 {
			t.Errorf("planted %+v: %d violations, want 1", res, len(r.violations))
		}
	}

	p := twinPoint{9, 4, true}
	refs, err := twinRefs([]twinPoint{p}, "../TWIN_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	good := newReport("test")
	if _, err := twinOp(p, refs, map[[2]int]float64{}).run(context.Background(), good); err != nil || len(good.violations) != 0 {
		t.Fatalf("correct prediction: err %v, violations %v", err, good.violations)
	}
	ref := refs[[2]int{9, 4}]
	ref.mean *= 1.01
	refs[[2]int{9, 4}] = ref
	bad := newReport("test")
	if _, err := twinOp(p, refs, map[[2]int]float64{}).run(context.Background(), bad); err != nil || len(bad.violations) != 1 {
		t.Errorf("prediction 1%% off the exact reference: err %v, %d violations, want 1", err, len(bad.violations))
	}
}

// TestUnexpectedStatusCountsAsFailed sends an invalid spec that the
// benchmark (wrongly) expects to succeed, and a valid one, to a live
// server: the first must count as one failed request and fail the
// check, the second must pass.
func TestUnexpectedStatusCountsAsFailed(t *testing.T) {
	s, err := startServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	planted := request{class: "planted", path: "/v1/trials", body: []byte(`{"n":2,"k":4,"seed":1}`), want: http.StatusOK}
	valid := trialRequest("trial-cold", harness.TrialSpec{N: 12, K: 3, Seed: 5})
	reqs := []request{planted, valid, valid}
	r := newReport("test")
	lat, counts := s.absorb(r, reqs, []outcome{s.do(planted), s.do(valid), s.do(valid)})
	if r.attempted != 3 || r.failed != 1 || len(r.violations) != 1 {
		t.Errorf("attempted %d failed %d violations %v; want 3, 1, one violation", r.attempted, r.failed, r.violations)
	}
	if counts["planted.400"] != 1 || counts["trial-cold.200"] != 2 {
		t.Errorf("counts %v", counts)
	}
	if len(lat) != 3 || lat[0] != failedLatencyMS {
		t.Errorf("latencies %v: the failed request must count as over the limit", lat)
	}
}

// TestTail checks the tail percentile: the 11th largest sample, with ten
// beyond it.
func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	got := tail(xs)
	if got.value != 90 || got.beyond != 10 || got.pct != 90 {
		t.Errorf("tail of 1..100 = %+v, want value 90, 10 beyond, p90", got)
	}
	if got := tail(xs[:99]); got.value != 99 || got.beyond != 0 {
		t.Errorf("tail of 1..99 = %+v, want the maximum with none beyond", got)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

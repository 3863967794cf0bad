package main

// serve-mix: an in-process serve.Server on loopback, loaded by an open
// loop of seeded Poisson arrivals over a fixed number of keep-alive
// connections. The mix is mostly cached /v1/trials replays over a skewed
// spec population, a fixed set of computed trials, /v1/predict (mostly
// warm), small /v1/sweeps and a few invalid specs that must get a 400.
// After the fixed-rate phase, a closed-loop replay of the warm mix gives
// makespan_s and a rate search gives max_rate_rps.

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"

	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Pinned service and load settings (README.md lists them too).
const (
	serveWorkers      = 2    // trial workers
	serveQueueDepth   = 64   // admission queue slots
	serveCacheEntries = 8192 // LRU entries: every spec of a run fits, so nothing is evicted
	serveConns        = 2    // client keep-alive connections (at most nproc)
	serveRate         = 400  // offered rate of the fixed-rate phase, requests per second
	serveLimitMS      = 20   // latency limit on req_ms.tail for the rate search
	warmTrialSpecs    = 256  // size of the skewed warm trial population
	warmSweeps        = 4    // distinct warm sweep requests
	rateStart         = 4000 // first rate the search offers
	rateCap           = 1e6  // the search offers no more, so a probe's request list stays bounded
	rateStep          = 1.03 // search resolution: adjacent rates differ by 3%
	probeSeconds      = 1.0  // length of one search probe
)

// The request classes of the mix with their shares of the fixed-rate
// phase. The warm mix of the closed-loop replay and the rate search
// keeps only the warm classes, in the same proportions.
var serveClasses = []struct {
	name  string
	share float64
	warm  bool
}{
	// Computed trials are the slowest common class, so the latency tail
	// sits among them; at 10% a round holds about 90, enough that the
	// tail is an order statistic well inside their distribution.
	{"trial-warm", 0.73, true},
	{"trial-cold", 0.10, false},
	{"predict-warm", 0.088, true},
	// Cold predictions take milliseconds on the request goroutine. At
	// 1% a round had about as many of them as the tail's ten requests
	// beyond it, so the tail flipped between two populations from run to
	// run; they stay rare.
	{"predict-cold", 0.002, false},
	{"sweep", 0.06, true},
	{"invalid", 0.02, false},
}

// request is one scheduled HTTP request with its expected status.
type request struct {
	class string
	path  string
	body  []byte
	want  int
	key   string // identity whose responses must be byte-identical ("" for none)
	spec  *harness.TrialSpec
}

// serveInputs is everything a run sends, generated from the seed.
type serveInputs struct {
	warm      []request  // every warm request, sent once during set-up
	rounds    []schedule // the fixed-rate phase's rounds
	warmMix   []request  // closed-loop replay list and search mix
	rateSeeds []uint64   // per search probe arrival stream
}

// schedule is one open-loop round: requests in arrival order with their
// arrival times in seconds after the round's start.
type schedule struct {
	reqs     []request
	arrivals []float64
}

// fixedRounds is how many rounds the fixed-rate phase is split into;
// the request latency metrics are the medians over the rounds, so one
// stall of the host moves one round's tail, not the run's. Each round
// draws its own schedule, so its cold requests are cold.
const fixedRounds = 3

func trialRequest(class string, s harness.TrialSpec) request {
	req := serve.TrialRequest{N: s.N, K: s.K, Seed: s.Seed, Grouping: s.Grouping, Engine: s.Engine.String()}
	body, _ := json.Marshal(req)
	return request{class: class, path: "/v1/trials", body: body, want: http.StatusOK, key: harness.SpecKey(s), spec: &s}
}

func predictRequest(class string, n, k int, milestones bool) request {
	body, _ := json.Marshal(serve.PredictRequest{N: n, K: k, Milestones: milestones})
	return request{class: class, path: "/v1/predict", body: body, want: http.StatusOK, key: string(body)}
}

// serveInputsFor builds the populations and the fixed-rate rounds, each
// of count requests at rate per second.
func serveInputsFor(seed uint64, count int, rate float64) serveInputs {
	r := rng.New(rng.StreamSeed(seed, 0x5e7e))
	var in serveInputs

	// Warm trials: paper-sized agent trials, requested with Zipf(1.1)
	// popularity, so a few specs take most of the traffic.
	ks := []int{3, 4, 5, 6, 8}
	var warmTrials []request
	for i := 0; i < warmTrialSpecs; i++ {
		k := ks[r.Intn(len(ks))]
		n := 2*k + r.Intn(61-2*k)
		warmTrials = append(warmTrials, trialRequest("trial-warm", harness.TrialSpec{
			N: n, K: k, Seed: rng.StreamSeed(seed, 1, uint64(i)), Grouping: i%2 == 0,
		}))
	}
	zipf := make([]float64, len(warmTrials))
	acc := 0.0
	for i := range zipf {
		acc += 1 / math.Pow(float64(i+1), 1.1)
		zipf[i] = acc
	}
	pickWarmTrial := func() request {
		u := r.Float64() * acc
		return warmTrials[sort.SearchFloat64s(zipf, u)]
	}

	// Warm predictions: small exact chains and mean-field points.
	var warmPredicts []request
	for _, nk := range [][2]int{{8, 3}, {10, 3}, {8, 4}, {10, 4}, {12, 4}} {
		warmPredicts = append(warmPredicts, predictRequest("predict-warm", nk[0], nk[1], false))
	}
	for k := 3; k <= 6; k++ {
		warmPredicts = append(warmPredicts, predictRequest("predict-warm", 1000+k*r.Intn(10), k, false))
	}
	// Cold predictions: distinct small exact chains (a few milliseconds
	// each), each asked once.
	var coldPredicts []request
	for k := 2; k <= 4; k++ {
		for n := 2 * k; n <= 9; n++ {
			for _, m := range []bool{false, true} {
				if !m && n == 8 && k >= 3 {
					continue // in the warm set
				}
				coldPredicts = append(coldPredicts, predictRequest("predict-cold", n, k, m))
			}
		}
	}
	for i := len(coldPredicts) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		coldPredicts[i], coldPredicts[j] = coldPredicts[j], coldPredicts[i]
	}

	var sweeps []request
	for i := 0; i < warmSweeps; i++ {
		body, _ := json.Marshal(serve.SweepRequest{N: 24, K: 4, Trials: 4, Seed: rng.StreamSeed(seed, 3), PointID: uint64(i)})
		sweeps = append(sweeps, request{class: "sweep", path: "/v1/sweeps", body: body, want: http.StatusOK, key: string(body)})
	}
	invalid := []request{
		{class: "invalid", path: "/v1/trials", body: []byte(`{"n":2,"k":4,"seed":1}`), want: http.StatusBadRequest},
		{class: "invalid", path: "/v1/trials", body: []byte(`{"n":12,"k":1,"seed":1}`), want: http.StatusBadRequest},
		{class: "invalid", path: "/v1/trials", body: []byte(`{"n":12,"k":3,"engine":"warp"}`), want: http.StatusBadRequest},
		{class: "invalid", path: "/v1/predict", body: []byte(`{"n":1,"k":3}`), want: http.StatusBadRequest},
		{class: "invalid", path: "/v1/sweeps", body: []byte(`{"n":12,"k":3,"trials":0}`), want: http.StatusBadRequest},
	}

	in.warm = append(append(append([]request(nil), warmTrials...), warmPredicts...), sweeps...)
	cold, coldPred := 0, 0
	draw := func(warmOnly bool) request {
		for {
			u := r.Float64()
			for _, c := range serveClasses {
				if u >= c.share {
					u -= c.share
					continue
				}
				if warmOnly && !c.warm {
					break
				}
				switch c.name {
				case "trial-warm":
					return pickWarmTrial()
				case "trial-cold":
					cold++
					return trialRequest("trial-cold", harness.TrialSpec{
						N: 12 + r.Intn(49), K: 3 + r.Intn(3), Seed: rng.StreamSeed(seed, 2, uint64(cold)),
					})
				case "predict-warm":
					return warmPredicts[r.Intn(len(warmPredicts))]
				case "predict-cold":
					if coldPred < len(coldPredicts) {
						coldPred++
						return coldPredicts[coldPred-1]
					}
					return warmPredicts[r.Intn(len(warmPredicts))]
				case "sweep":
					return sweeps[r.Intn(len(sweeps))]
				case "invalid":
					return invalid[r.Intn(len(invalid))]
				}
			}
		}
	}
	for round := 0; round < fixedRounds; round++ {
		sc := schedule{arrivals: poissonArrivals(rng.StreamSeed(seed, 5, uint64(round)), count, rate)}
		for i := 0; i < count; i++ {
			sc.reqs = append(sc.reqs, draw(false))
		}
		in.rounds = append(in.rounds, sc)
	}
	for i := 0; i < 2000; i++ {
		in.warmMix = append(in.warmMix, draw(true))
	}
	for i := 0; i < 64; i++ {
		in.rateSeeds = append(in.rateSeeds, rng.StreamSeed(seed, 4, uint64(i)))
	}
	return in
}

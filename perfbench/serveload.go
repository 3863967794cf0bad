package main

// The serve-mix load generator and its measurements: the in-process
// server, the open- and closed-loop senders, the response checks, the
// rate search and the serve layer metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/rng"
	"repro/internal/serve"
)

// server is one in-process serve.Server on a loopback listener, with
// the client that loads it and the first response seen per identity.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	reg    *obs.Registry
	spans  *span.Collector
	base   string
	client *http.Client
	first  map[string][]byte
}

// startServer starts a server with the pinned settings; traced servers
// collect request span trees in memory.
func startServer(traced bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{reg: obs.New("serve"), served: make(chan error, 1), first: map[string][]byte{}}
	if traced {
		s.spans = span.NewCollector(nil)
	}
	s.srv = serve.New(serve.Config{
		Workers:      serveWorkers,
		QueueDepth:   serveQueueDepth,
		CacheEntries: serveCacheEntries,
		Registry:     s.reg,
		Spans:        s.spans,
	})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	return s, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Shutdown()
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// outcome is one sent request's result.
type outcome struct {
	sent   bool
	status int
	body   []byte
	err    error
	latMS  float64 // completion minus the scheduled (or, closed loop, actual) send time
	lateMS float64 // actual minus scheduled send time
	svcMS  float64 // completion minus actual send time
}

func (s *server) do(req request) outcome {
	resp, err := s.client.Post(s.base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return outcome{sent: true, err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{sent: true, status: resp.StatusCode, body: body, err: err}
}

// openLoop sends reqs[i] at arrivals[i] seconds after the start, over
// serveConns senders that take requests in arrival order; a request whose
// sender is still busy waits, and its latency counts from the scheduled
// time. abortLateMS > 0 stops sending once a request goes out that late
// (an overloaded search probe); requests never sent are left unsent.
func (s *server) openLoop(reqs []request, arrivals []float64, abortLateMS float64) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(arrivals[i] * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := s.do(reqs[i])
				done := time.Now()
				o.lateMS = msBetween(due, sent)
				o.latMS = msBetween(due, done)
				o.svcMS = msBetween(sent, done)
				outs[i] = o
				if abortLateMS > 0 && o.lateMS > abortLateMS {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop sends reqs back to back over serveConns senders and returns
// the outcomes and the wall time of the whole list.
func (s *server) closedLoop(reqs []request) ([]outcome, float64) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				sent := time.Now()
				o := s.do(reqs[i])
				o.latMS = msBetween(sent, time.Now())
				o.svcMS = o.latMS
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start).Seconds()
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// failedLatencyMS is the latency a failed request is counted with: over
// any limit, as the latency metrics require.
const failedLatencyMS = 1e6

// absorb checks the outcomes of one phase on the calling goroutine and
// returns the latency of every sent request (failures count as
// failedLatencyMS) and the phase's work counters: requests per class and
// status. Every response must have its request's expected status, every
// repeated response must be byte-identical to the first one for its
// identity, and the first one must carry a correct result.
func (s *server) absorb(r *report, reqs []request, outs []outcome) ([]float64, work) {
	var lat []float64
	counts := work{}
	for i, o := range outs {
		if !o.sent {
			continue
		}
		req := reqs[i]
		r.attempted++
		counts[req.class+"."+strconv.Itoa(o.status)]++
		if o.err != nil || o.status != req.want {
			r.failed++
			r.violate("%s %s %s: status %d (want %d), err %v", req.class, req.path, req.body, o.status, req.want, o.err)
			lat = append(lat, failedLatencyMS)
			continue
		}
		lat = append(lat, o.latMS)
		if req.key == "" {
			continue
		}
		if prev, ok := s.first[req.key]; ok {
			if !bytes.Equal(prev, o.body) {
				r.violate("%s %s %s: response differs from the first response for its key", req.class, req.path, req.body)
			}
			continue
		}
		s.first[req.key] = o.body
		checkBody(r, req, o.body)
	}
	return lat, counts
}

// checkBody checks the content of the first response for an identity:
// trial records converged with spread at most one, predictions carry a
// positive expected time, sweeps stream one record per trial and a
// trailer.
func checkBody(r *report, req request, body []byte) {
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	switch req.path {
	case "/v1/trials", "/v1/sweeps":
		recs := lines
		if req.path == "/v1/sweeps" {
			var sw serve.SweepRequest
			_ = json.Unmarshal(req.body, &sw)
			if len(lines) != sw.Trials+1 || !strings.HasPrefix(lines[len(lines)-1], `{"point":`) {
				r.violate("sweep %s: %d lines, want %d records and a trailer", req.body, len(lines), sw.Trials)
				return
			}
			recs = lines[:len(lines)-1]
		}
		for _, line := range recs {
			var rec serve.Record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				r.violate("%s %s: undecodable record: %v", req.path, req.body, err)
				continue
			}
			checkTrial(r, fmt.Sprintf("%s %s", req.path, req.body), rec.Result)
			if req.spec != nil && rec.SpecKey != harness.SpecKey(*req.spec) {
				r.violate("%s %s: record for key %s", req.path, req.body, rec.SpecKey)
			}
		}
	case "/v1/predict":
		var rec serve.PredictRecord
		if err := json.Unmarshal(body, &rec); err != nil || !(rec.Prediction.ExpectedInteractions > 0) {
			r.violate("predict %s: bad record (err %v): %s", req.body, err, body)
		}
	}
}

// warmUp sends every warm request once, so the fixed-rate phase finds
// them cached (their responses become the first responses later
// replays are compared with), then replays the warm mix once.
func (s *server) warmUp(r *report, in serveInputs) error {
	before := r.failed
	for _, reqs := range [][]request{in.warm, in.warmMix} {
		outs, _ := s.closedLoop(reqs)
		s.absorb(r, reqs, outs)
		r.attempted -= len(reqs) // set-up requests are not timed operations
	}
	if r.failed != before {
		return fmt.Errorf("%d warm-up requests failed", r.failed-before)
	}
	return nil
}

// poissonArrivals returns count arrival times at rate per second from
// the given seed.
func poissonArrivals(seed uint64, count int, rate float64) []float64 {
	r := rng.New(seed)
	var t float64
	out := make([]float64, count)
	for i := range out {
		t += -math.Log(1-r.Float64()) / rate
		out[i] = t
	}
	return out
}

// searchRate finds the highest offered rate of the warm mix whose
// request latency tail stays under serveLimitMS without a growing
// backlog: doubling from rateStart until a probe fails, then bisecting
// in log space until adjacent rates differ by less than rateStep.
func (s *server) searchRate(r *report, in serveInputs) (float64, int) {
	probes := 0
	probe := func(rate float64) bool {
		count := int(rate * probeSeconds)
		reqs := make([]request, count)
		for i := range reqs {
			reqs[i] = in.warmMix[(probes*7919+i)%len(in.warmMix)]
		}
		arrivals := poissonArrivals(in.rateSeeds[probes%len(in.rateSeeds)], count, rate)
		probes++
		outs := s.openLoop(reqs, arrivals, 4*serveLimitMS)
		lat, _ := s.absorb(r, reqs, outs)
		if len(lat) < count {
			fmt.Printf("rate probe %.0f/s: aborted after %d of %d requests\n", rate, len(lat), count)
			return false
		}
		// A growing backlog shows as late sends at the end of the probe.
		var lateEnd []float64
		for _, o := range outs[count*4/5:] {
			lateEnd = append(lateEnd, o.lateMS)
		}
		t := tail(lat)
		ok := t.value < serveLimitMS && median(lateEnd) < serveLimitMS/4
		fmt.Printf("rate probe %.0f/s: tail %.3f ms (%s), end lateness p50 %.3f ms: %t\n", rate, t.value, t, median(lateEnd), ok)
		return ok
	}
	lo, hi := 0.0, float64(rateStart)
	for hi < rateCap && probe(hi) {
		lo = hi
		hi *= 2
	}
	if lo == 0 {
		for lo = hi / 2; lo > 10 && !probe(lo); lo /= 2 {
			hi = lo
		}
	}
	for hi/lo > rateStep {
		mid := math.Sqrt(lo * hi)
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

func runServeMix(cfg config) (*report, error) {
	r := newReport("serve-mix")
	if cfg.trace {
		return r, serveTraced(r, cfg)
	}
	in := serveInputsFor(cfg.seed, int(serveRate*phaseLength(cfg).Seconds()), serveRate)
	var old []*server
	s, err := setupRuns(r, func() (*server, error) {
		s, err := startServer(false)
		if err != nil {
			return nil, err
		}
		old = append(old, s)
		return s, s.warmUp(r, in)
	})
	for _, o := range old {
		if o != s {
			if err := o.stop(); err != nil {
				return nil, err
			}
		}
	}
	if err != nil {
		return nil, err
	}
	defer s.stop()

	start := time.Now()
	p50s, tails, _ := s.fixedPhase(r, in, "")
	r.set("req_ms.p50", median(p50s), "ms")
	r.set("req_ms.tail", median(tails), "ms")

	var walls []float64
	deadline := time.Now().Add(cfg.budget * 15 / 100)
	for len(walls) < minRounds || time.Now().Before(deadline) {
		outs, wall := s.closedLoop(in.warmMix)
		_, c := s.absorb(r, in.warmMix, outs)
		r.checkWork("closed-loop round", fmt.Sprintf("closed-loop round %d", len(walls)+1), c)
		walls = append(walls, wall)
	}
	fmt.Printf("closed-loop rounds (s): %s\n", fmtList(walls))
	r.set("makespan_s", best(walls), "s")

	rate, probes := s.searchRate(r, in)
	r.set("max_rate_rps", rate, "req/s")
	fmt.Printf("rate search: %d probes, timed phase %.1f s\n", probes, time.Since(start).Seconds())
	return r, r.setRSS()
}

// fixedPhase runs the fixed-rate rounds and returns each round's request
// latency p50 and tail and its outcomes. Each round's requests per class
// and status are work counters: a traced and an untraced phase must
// match round for round.
func (s *server) fixedPhase(r *report, in serveInputs, label string) (p50s, tails []float64, outs [][]outcome) {
	for i, sc := range in.rounds {
		o := s.openLoop(sc.reqs, sc.arrivals, 0)
		lat, counts := s.absorb(r, sc.reqs, o)
		group := fmt.Sprintf("fixed-rate round %d", i+1)
		r.checkWork(group, group+label, counts)
		t := tail(lat)
		fmt.Printf("%s%s: %d requests at %d/s, p50 %.3f ms, tail %.3f ms at %s\n",
			group, label, len(sc.reqs), serveRate, median(lat), t.value, t)
		p50s = append(p50s, median(lat))
		tails = append(tails, t.value)
		outs = append(outs, o)
	}
	return p50s, tails, outs
}

// serveTraced runs the fixed-rate phase on an untraced and then a traced
// server (the same schedule, so the same work) and derives the serve
// layer metrics from the traced server's spans.
func serveTraced(r *report, cfg config) error {
	in := serveInputsFor(cfg.seed, int(serveRate*phaseLength(cfg).Seconds()), serveRate)
	phaseRun := func(traced bool) (*server, []float64, [][]outcome, error) {
		s, err := startServer(traced)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := s.warmUp(r, in); err != nil {
			return nil, nil, nil, err
		}
		before := readMem()
		p50s, _, outs := s.fixedPhase(r, in, fmt.Sprintf(", traced %t", traced))
		var mem memDelta
		mem.add(before, readMem())
		if !traced {
			r.setGo(mem, 1)
		}
		return s, p50s, outs, s.stop()
	}
	_, plainP50s, plainOuts, err := phaseRun(false)
	if err != nil {
		return err
	}
	r.setTail("bench.late_ms.tail", lateness(plainOuts), "ms")
	s, p50s, outs, err := phaseRun(true)
	if err != nil {
		return err
	}
	r.set("span.overhead", median(p50s)/median(plainP50s)-1, "ratio")
	f := buildForest(s.spans.Export())
	f.printRollup()
	serveLayers(r, f, s.reg)
	var sweep []float64
	var sent []request
	for i, sc := range in.rounds {
		for j, req := range sc.reqs {
			if req.class == "sweep" && outs[i][j].sent {
				sweep = append(sweep, outs[i][j].svcMS)
			}
			sent = append(sent, req)
		}
	}
	r.set("serve.sweep_ms.p50", median(sweep), "ms")
	r.set("serve.failed", float64(r.failed), "count")
	timeSpecCalls(r, sent)
	return nil
}

// phaseLength is the fixed-rate phase's length: 35% of the budget, or
// 1.5 s at probe size. The rounds share it equally.
func phaseLength(cfg config) time.Duration {
	if cfg.probe {
		return 1500 * time.Millisecond / fixedRounds
	}
	return cfg.budget * 35 / 100 / fixedRounds
}

// lateness returns how late each sent request of the rounds went out.
func lateness(rounds [][]outcome) []float64 {
	var late []float64
	for _, outs := range rounds {
		for _, o := range outs {
			if o.sent {
				late = append(late, o.lateMS)
			}
		}
	}
	return late
}

// serveLayers derives the serve layer metrics from the request span
// trees: cache hits and misses of /v1/trials, /v1/predict, the admission
// queue wait, and the request span's self time (decode, validation,
// SpecKey, cache lookup and encoding; the queue and trial spans are its
// children).
func serveLayers(r *report, f spanForest, reg *obs.Registry) {
	var hit, miss, predict, self, queue []float64
	for _, req := range f.named("request") {
		ms := float64(req.WallDurUS) / 1e3
		self = append(self, req.selfUS/1e3)
		switch {
		case req.attr("endpoint") == "predict":
			predict = append(predict, ms)
		case req.attr("cache") == "miss":
			miss = append(miss, ms)
		case req.attr("cache") != "":
			hit = append(hit, ms)
		}
	}
	for _, q := range f.named("queue") {
		queue = append(queue, float64(q.WallDurUS)/1e3)
	}
	r.set("serve.hit_ratio", ratio(float64(len(hit)), float64(len(hit)+len(miss))), "ratio")
	r.set("serve.hit_ms.p50", median(hit), "ms")
	r.setTail("serve.hit_ms.tail", hit, "ms")
	r.set("serve.miss_ms.p50", median(miss), "ms")
	r.setTail("serve.miss_ms.tail", miss, "ms")
	r.set("serve.predict_ms.p50", median(predict), "ms")
	r.setTail("serve.predict_ms.tail", predict, "ms")
	r.set("serve.queue_ms.p50", median(queue), "ms")
	r.setTail("serve.queue_ms.tail", queue, "ms")
	r.set("serve.request_self_ms.p50", median(self), "ms")
	r.set("serve.coalesced", float64(reg.Counter("serve/coalesced").Value()), "count")
	r.set("serve.rejected_429", float64(reg.Counter("serve/rejected").Value()), "count")
}

// timeSpecCalls times harness.SpecKey and harness.ValidateSpec, one call
// at a time, on every trial spec of the mix.
func timeSpecCalls(r *report, mix []request) {
	var key, validate []float64
	for _, req := range mix {
		if req.spec == nil {
			continue
		}
		t0 := time.Now()
		_ = harness.SpecKey(*req.spec)
		t1 := time.Now()
		if err := harness.ValidateSpec(*req.spec); err != nil {
			r.violate("ValidateSpec %+v: %v", *req.spec, err)
		}
		t2 := time.Now()
		key = append(key, float64(t1.Sub(t0).Nanoseconds())/1e3)
		validate = append(validate, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	r.set("harness.speckey_us.p50", median(key), "us")
	r.set("harness.validate_us.p50", median(validate), "us")
}

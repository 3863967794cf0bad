package main

// Measurement helpers: order statistics, the host reference loop, the
// host and memory readings, and the round runner shared by the
// one-operation-at-a-time workloads.

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tailStat is the highest percentile of a sample that still has at
// least tailBeyond samples beyond it.
type tailStat struct {
	value   float64
	pct     float64 // percentile of value, 0..100
	beyond  int     // samples strictly greater than value
	samples int
}

// tail returns the (tailBeyond+1)-th largest sample with its percentile.
// A tail sits at p90 or above, so with fewer than 10·tailBeyond samples
// the maximum is returned (with none beyond).
func tail(xs []float64) tailStat {
	s := sortedCopy(xs)
	t := tailStat{samples: len(s)}
	if len(s) == 0 {
		return t
	}
	i := len(s) - 1 - tailBeyond
	if len(s) < 10*tailBeyond {
		i = len(s) - 1
	}
	t.value = s[i]
	t.pct = 100 * float64(i+1) / float64(len(s))
	for _, v := range s[i+1:] {
		if v > t.value {
			t.beyond++
		}
	}
	return t
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.2f with %d of %d beyond", t.pct, t.beyond, t.samples)
}

// setTail records a tail metric and prints its percentile and count.
func (r *report) setTail(name string, xs []float64, unit string) {
	t := tail(xs)
	r.set(name, t.value, unit)
	fmt.Printf("  %s at %s\n", name, t)
}

// The host reference loop: a fixed pure-Go loop of floating-point math
// that calls no repository code. On a shared 2-vCPU Intel Xeon VM the
// host's speed drifted in phases lasting minutes (10 s medians of a
// fixed batch of trials had a coefficient of variation of 17% over
// 200 s), and this loop's time tracked that drift (correlation 0.98–
// 0.99 with agent-engine and batch-engine trials). An integer xorshift
// loop did not (correlation 0.85, 4% variation): the drift slows
// floating-point and memory-bound code, not a chain of register ops.
// So the timed phases sample this loop between operations and scale
// every measured time to a host on which it takes refNominalNS.
const (
	// refIters is the size of one reference sample (about 1.5 ms).
	refIters = 1 << 16
	// refNominalNS is the reference host's speed: ns per iteration of
	// the reference loop, about what the loop takes on that VM in its
	// fast phases.
	refNominalNS = 20.0
	// refEvery is the least operation time between two samples.
	refEvery = 50 * time.Millisecond
	// refWindow is how many samples on each side of a stretch of
	// operations its scale is taken from.
	refWindow = 3
)

// refSink keeps the reference loop's result alive.
var refSink float64

// refSample runs the reference loop once and returns its nanoseconds
// per iteration.
func refSample() float64 {
	s, x := 0.0, 1.0001
	start := time.Now()
	for i := 0; i < refIters; i++ {
		x = x*1.0000001 + 1e-9
		s += math.Log(x) + math.Exp(-x) + math.Sqrt(x)
	}
	refSink += s
	return float64(time.Since(start).Nanoseconds()) / refIters
}

// hostRefNS returns the median of five reference samples. Taken before
// and after a run, it shows the host's speed next to every number.
func hostRefNS() float64 {
	var reps []float64
	for r := 0; r < 5; r++ {
		reps = append(reps, refSample())
	}
	return median(reps)
}

// refScale is the factor that converts a time measured between
// reference samples refs[s] and refs[s+1] to reference-host time. It
// uses the median of the refWindow samples on each side: one sample
// lasts about 1.5 ms, and an interrupt or a page fault during it would
// otherwise rescale a whole stretch of operations, while the drift it
// tracks lasts seconds to minutes.
func refScale(refs []float64, s int) float64 {
	return refNominalNS / median(refs[max(0, s+1-refWindow):min(len(refs), s+1+refWindow)])
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memDelta is the Go runtime's allocation and GC activity over an
// interval.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMS float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (d *memDelta) add(before, after runtime.MemStats) {
	d.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	d.mallocs += float64(after.Mallocs - before.Mallocs)
	d.gcCycles += float64(after.NumGC - before.NumGC)
	d.gcPauseMS += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// setGo records the runtime deltas per pass.
func (r *report) setGo(d memDelta, passes int) {
	p := float64(passes)
	r.set("go.alloc_mb", d.allocMB/p, "MB")
	r.set("go.mallocs", d.mallocs/p, "count")
	r.set("go.gc_cycles", d.gcCycles/p, "count")
	r.set("go.gc_pause_ms", d.gcPauseMS/p, "ms")
}

// work is a pass's deterministic work counters.
type work map[string]uint64

func (w work) add(o work) {
	for k, v := range o {
		w[k] += v
	}
}

// op is one operation of a pass. run executes it once under ctx (which
// carries the benchmark's span when traced), checks its output, and
// returns its work counters; an error counts as a failed operation.
type op struct {
	name string
	run  func(ctx context.Context, r *report) (work, error)
}

// passTiming is one pass over the op list.
type passTiming struct {
	wall float64   // seconds, as measured
	ref  float64   // median reference sample of the pass, ns per iteration
	lat  []float64 // per-op milliseconds of reference-host time, in op order
}

// runPass executes every op once, in order, on the calling goroutine.
// It samples the host reference loop before the first op and after
// every refEvery of op time, and scales each op's latency by refScale
// of the samples around it. wrap, when non-nil, gives each op its
// context (the traced passes root a span per op there) and is called
// again with the op's end.
func runPass(r *report, ops []op, label string, wrap func(i int) (context.Context, func())) passTiming {
	pt := passTiming{lat: make([]float64, len(ops))}
	total := work{}
	refs := []float64{refSample()}
	var ends []int // ends[s]: one past the last op before sample s+1
	since := 0.0   // op time since the last sample
	start := time.Now()
	for i, o := range ops {
		ctx, done := context.Background(), func() {}
		if wrap != nil {
			ctx, done = wrap(i)
		}
		t0 := time.Now()
		w, err := o.run(ctx, r)
		pt.lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		done()
		r.attempted++
		if err != nil {
			r.failed++
			if r.failed <= 5 {
				fmt.Printf("op failed: %s: %v\n", o.name, err)
			}
		} else {
			total.add(w)
		}
		if since += pt.lat[i]; since >= float64(refEvery.Milliseconds()) || i == len(ops)-1 {
			refs = append(refs, refSample())
			ends = append(ends, i+1)
			since = 0
		}
	}
	pt.wall = time.Since(start).Seconds()
	first := 0
	for s, end := range ends {
		f := refScale(refs, s)
		for j := first; j < end; j++ {
			pt.lat[j] *= f
		}
		first = end
	}
	pt.ref = median(refs)
	r.checkWork("pass", label, total)
	return pt
}

// best returns the smallest value of xs.
func best(xs []float64) float64 {
	return sortedCopy(xs)[0]
}

// opLats collects each op's reference-host latency over rounds and
// returns every op's median latency and their sum in seconds. The
// rounds repeat identical work and the reference scaling removes the
// host's slow drift, so what is left between rounds is short-lived
// disturbance, which the median discards.
type opLats struct {
	lat [][]float64 // per op, per round, milliseconds
}

func newOpLats(n int) *opLats { return &opLats{lat: make([][]float64, n)} }

func (b *opLats) add(pt passTiming) {
	for i, l := range pt.lat {
		b.lat[i] = append(b.lat[i], l)
	}
}

func (b *opLats) median() (perOp []float64, passS float64) {
	perOp = make([]float64, len(b.lat))
	for i, ls := range b.lat {
		perOp[i] = median(ls)
		passS += perOp[i] / 1e3
	}
	return perOp, passS
}

// opRounds replays the op list as identical untraced rounds until the
// budget is spent (at least minRounds), and records the end-to-end
// metrics: makespan_s (the sum of the ops' median latencies), req_ms.p50
// over the ops' median latencies, and max_rate_rps (ops per second of
// that makespan). No tail is reported: nobody waits on one operation of
// these passes, and their slowest operations are set by the seed's draw
// of trials, not by the code.
func opRounds(r *report, ops []op, budget time.Duration) {
	var walls, scaled, refs []float64
	lats := newOpLats(len(ops))
	deadline := time.Now().Add(budget)
	for len(walls) < minRounds || time.Now().Before(deadline) {
		pt := runPass(r, ops, fmt.Sprintf("round %d", len(walls)+1), nil)
		walls = append(walls, pt.wall)
		refs = append(refs, pt.ref)
		var sum float64
		for _, l := range pt.lat {
			sum += l / 1e3
		}
		scaled = append(scaled, sum)
		lats.add(pt)
	}
	fmt.Printf("rounds: %d, round walls (s): %s\n", len(walls), fmtList(walls))
	fmt.Printf("round reference samples (ns/iter): %s\n", fmtList(refs))
	fmt.Printf("round op time, scaled (s): %s\n", fmtList(scaled))
	opMed, makespan := lats.median()
	printSlowest(ops, opMed)
	r.set("makespan_s", makespan, "s")
	r.set("req_ms.p50", median(opMed), "ms")
	r.set("max_rate_rps", float64(len(ops))/makespan, "req/s")
}

// tracedRounds alternates untraced and traced rounds until the budget
// is spent (at least minRounds of each). It records span.overhead (the
// traced pass time over the untraced one, minus one, each summed from
// the ops' median latencies) and the Go runtime deltas per pair of
// rounds (an untraced pass allocates too little to trigger a collection
// on some workloads, and a metric that always reads zero says nothing),
// and returns the last traced round's per-op latencies for the layer
// metrics. newTrace starts the traced round's span collection and
// returns its per-op wrapper.
func tracedRounds(r *report, ops []op, budget time.Duration, newTrace func() func(i int) (context.Context, func())) passTiming {
	plain, traced := newOpLats(len(ops)), newOpLats(len(ops))
	var mem memDelta
	var last passTiming
	rounds := 0
	deadline := time.Now().Add(budget)
	for rounds < minRounds || time.Now().Before(deadline) {
		rounds++
		before := readMem()
		plain.add(runPass(r, ops, fmt.Sprintf("untraced round %d", rounds), nil))
		last = runPass(r, ops, fmt.Sprintf("traced round %d", rounds), newTrace())
		traced.add(last)
		mem.add(before, readMem())
	}
	_, plainS := plain.median()
	_, tracedS := traced.median()
	fmt.Printf("%d round pairs: untraced pass %.4g s, traced pass %.4g s\n", rounds, plainS, tracedS)
	r.set("span.overhead", tracedS/plainS-1, "ratio")
	r.setGo(mem, rounds)
	return last
}

// setupRuns performs setup setupReps times, each between two reference
// samples, records setup_s as the median reference-host time, and
// returns the last setup's product.
func setupRuns[T any](r *report, setup func() (T, error)) (T, error) {
	var raw []float64
	refs := []float64{refSample()}
	var out T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, err
		}
		raw = append(raw, time.Since(start).Seconds())
		refs = append(refs, refSample())
		out = v
	}
	times := make([]float64, len(raw))
	for i, d := range raw {
		times[i] = d * refScale(refs, i)
	}
	fmt.Printf("setups (s): %s, as measured %s\n", fmtList(times), fmtList(raw))
	r.set("setup_s", median(times), "s")
	return out, nil
}

// setRSS records peak_rss_mb.
func (r *report) setRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", mb, "MB")
	return nil
}

// printSlowest prints the ops with the largest latency.
func printSlowest(ops []op, lat []float64) {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return lat[idx[a]] > lat[idx[b]] })
	if len(idx) > 8 {
		idx = idx[:8]
	}
	for _, i := range idx {
		fmt.Printf("  slowest: %9.3f ms  %s\n", lat[i], ops[i].name)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

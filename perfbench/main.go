// Command perfbench is the repository's benchmark: four workloads over
// the simulator, the analytical twin and the HTTP service, each checked
// for correct outputs and reported as named metrics with units.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json,
// measured with tracing off. With --trace 1 it prints the per-layer
// metrics: the workload's own passes run alternately untraced and traced
// (the difference is span.overhead), and the layers the workload does
// not exercise are measured on a small probe of the workload that does.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md documents
// every workload, metric and pinned setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Pinned execution settings: constants, never defaulted from the host,
// so that two hosts (or two runs) measure the same configuration.
const (
	// maxProcs is the GOMAXPROCS every run pins (lowered to the host's
	// CPU count when it has fewer).
	maxProcs = 2
	// minRounds is the least number of identical rounds a timed phase
	// replays, however short --seconds is.
	minRounds = 3
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
)

// workload is one named benchmark workload. run measures it for the
// given budget; probe measures it at a small fixed size for the
// per-layer metrics of runs of other workloads.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

// config is one invocation's settings.
type config struct {
	seed     uint64
	budget   time.Duration
	trace    bool
	probe    bool   // small fixed-size pass for per-layer probes
	baseline string // path of the committed twin baseline
}

// workloads are the runnable workloads. BENCHMARK.json gates the first
// three. serve-mix measures latency under open-loop load in real time,
// where neither medians of identical rounds nor the reference-host
// scaling of single operations applies: on a shared 2-vCPU VM its latency
// tail and rate search moved by 2–6× between runs minutes apart, so it
// runs by hand and as the serve layer's probe.
var workloads = []workload{
	{"paper-sweep", runPaperSweep},
	{"scale-batch", runScaleBatch},
	{"twin-solve", runTwinSolve},
	{"serve-mix", runServeMix},
}

// layerOwner names, for each per-layer metric prefix, the workload whose
// traced pass measures it. A traced run of any other workload measures
// that prefix on the owner's probe.
var layerOwner = []struct{ prefix, workload string }{
	{"sim.", "paper-sweep"},
	{"countsim.", "paper-sweep"},
	{"harness.trial_self_us", "paper-sweep"},
	{"batch.", "scale-batch"},
	{"twin.", "twin-solve"},
	{"serve.", "serve-mix"},
	{"harness.speckey_us", "serve-mix"},
	{"harness.validate_us", "serve-mix"},
	{"bench.late_ms", "serve-mix"},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: paper-sweep, scale-batch, twin-solve or serve-mix")
		seed     = flag.Uint64("seed", 1, "workload seed; the inputs are a pure function of it")
		seconds  = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		baseline = flag.String("baseline", "TWIN_baseline.json", "committed twin baseline the twin outputs are checked against")
		stamp    = flag.String("build", "unknown", "source revision stamped on the result")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		baseline: *baseline,
	}
	res, err := execute(w, cfg, *stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// execute runs one workload, stamps host and build around it, and (with
// tracing on) fills the layers the workload does not own from probes.
func execute(w workload, cfg config, build string) (*result, error) {
	procs := maxProcs
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	refBefore := hostRefNS()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s build=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), build)
	fmt.Printf("run: workload=%s seed=%d seconds=%.0f trace=%t\n", w.name, cfg.seed, cfg.budget.Seconds(), cfg.trace)

	rep, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.trace {
		for _, other := range workloads {
			if other.name == w.name {
				continue
			}
			pcfg := cfg
			pcfg.probe = true
			prep, err := other.run(pcfg)
			if err != nil {
				return nil, fmt.Errorf("%s probe: %w", other.name, err)
			}
			rep.adoptLayers(prep, other.name)
		}
	}
	refAfter := hostRefNS()
	fmt.Printf("host_ref_ns: before=%.3f after=%.3f\n", refBefore, refAfter)
	if cfg.trace {
		rep.set("bench.host_ref_ns", (refBefore+refAfter)/2, "ns")
	}
	rep.printWork()
	return rep.result(cfg.trace), nil
}

// owner returns the workload that measures metric, or "" for metrics
// every workload measures itself (go.*, span.overhead, bench.host_ref_ns).
func owner(metric string) string {
	for _, o := range layerOwner {
		if strings.HasPrefix(metric, o.prefix) {
			return o.workload
		}
	}
	return ""
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload run: metrics, deterministic work
// counters, operation counts and output-check violations.
type report struct {
	workload   string
	metrics    map[string]metric
	work       map[string]work // by group: a pass, a request phase
	attempted  int
	failed     int
	violations []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}, work: map[string]work{}}
}

// set records a metric and prints it with its unit.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-28s %14.6g %s\n", name, v, unit)
}

// violate records a failed output check.
func (r *report) violate(format string, args ...any) {
	msg := r.workload + ": " + fmt.Sprintf(format, args...)
	if len(r.violations) < 20 {
		fmt.Println("CHECK FAILED:", msg)
	}
	r.violations = append(r.violations, msg)
}

// checkWork records a group's work counters, or compares them with
// those already recorded for the group: the work of a pass is a pure
// function of the seed, so any difference between rounds, or between
// traced and untraced passes, is an error in the benchmark or the
// program.
func (r *report) checkWork(group, label string, w work) {
	first, ok := r.work[group]
	if !ok {
		r.work[group] = w
		return
	}
	if !sameWork(first, w) {
		r.violate("%s: work counters differ from the first %s: %v vs %v", label, group, w, first)
	}
}

func sameWork(a, b work) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// adoptLayers copies the per-layer metrics that probe's workload owns,
// and counts the probe's operations, failures and check violations as
// the run's own.
func (r *report) adoptLayers(probe *report, name string) {
	for k, m := range probe.metrics {
		if owner(k) == name {
			r.metrics[k] = m
		}
	}
	r.violations = append(r.violations, probe.violations...)
	r.attempted += probe.attempted
	r.failed += probe.failed
}

// printWork prints every group's work counters, sorted by name.
func (r *report) printWork() {
	for _, g := range sortedKeys(r.work) {
		var b strings.Builder
		for _, k := range sortedKeys(r.work[g]) {
			fmt.Fprintf(&b, " %s=%d", k, r.work[g][k])
		}
		fmt.Printf("work %s:%s\n", g, b.String())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// result keeps the metrics of the requested kind: end-to-end names
// (no dot-prefixed layer) untraced, per-layer names traced.
func (r *report) result(trace bool) *result {
	out := &result{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	for _, name := range want {
		if m, ok := r.metrics[name]; ok {
			out.Metrics[name] = m
		} else {
			out.Correct = false
			fmt.Println("CHECK FAILED: metric not measured:", name)
		}
	}
	if out.Attempted == 0 {
		out.Attempted = 1
	}
	return out
}

// endToEnd lists the end-to-end metrics (BENCHMARK.json "end_to_end").
var endToEnd = []string{
	"setup_s", "makespan_s", "peak_rss_mb", "req_ms.p50", "max_rate_rps",
}

// perLayer lists the per-layer metrics (BENCHMARK.json "per_layer").
var perLayer = []string{
	"serve.hit_ratio", "serve.hit_ms.p50", "serve.hit_ms.tail",
	"serve.miss_ms.p50", "serve.miss_ms.tail",
	"serve.predict_ms.p50", "serve.predict_ms.tail", "serve.sweep_ms.p50",
	"serve.queue_ms.p50", "serve.queue_ms.tail", "serve.request_self_ms.p50",
	"serve.coalesced", "serve.rejected_429", "serve.failed",
	"harness.trial_self_us.p50", "harness.speckey_us.p50", "harness.validate_us.p50",
	"sim.interactions", "sim.productive_ratio", "sim.ns_per_interaction", "sim.endgame_share",
	"countsim.productive", "countsim.ns_per_productive",
	"batch.batches", "batch.seq_steps", "batch.clamped",
	"batch.us_per_batch", "batch.audit_share", "batch.pred_share",
	"twin.lumped_s", "twin.lumped_states", "twin.lumped_us_per_state",
	"twin.meanfield_s", "twin.endgame_states", "twin.failed",
	"go.alloc_mb", "go.mallocs", "go.gc_cycles", "go.gc_pause_ms",
	"span.overhead", "bench.late_ms.tail", "bench.host_ref_ns",
}

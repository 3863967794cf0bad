// Command kpart-experiments regenerates the paper's evaluation figures
// (Section 5) as CSV files plus ASCII charts on stdout:
//
//	fig3 — interactions vs n for k in {4,6,8} (jagged, period k)
//	fig4 — per-grouping decomposition of the same sweep (stacked)
//	fig5 — interactions vs n = 120·n' for k in {3,4,5,6} (n mod k = 0)
//	fig6 — interactions vs k at n = 960, log scale (exponential in k)
//
// Auxiliary experiments (opt-in by exact -fig name, never part of
// "all"): traj, scenarios, churn, and predict — the last overlays the
// analytical twin's predictions (internal/twin) on a fresh simulation of
// the fig6 grid, the end-to-end predicted-vs-measured comparison.
//
// Usage:
//
//	kpart-experiments -fig all [-trials 100] [-seed 20180725] [-out results] [-quick]
//	kpart-experiments -fig 6 -resume [-trial-timeout 10m] [-retries 2]
//	kpart-experiments -fig predict [-fig6max 12] [-quick]
//
// -quick shrinks every sweep (fewer trials, smaller ranges) to finish in
// seconds; use it to smoke-test the harness before a full reproduction.
//
// Long campaigns are resilient: every completed trial is checkpointed to
// an append-only journal next to the CSVs (<out>/<fig>.journal), SIGINT
// drains gracefully (in-flight trials abort, completed ones are already
// journaled), and rerunning with -resume picks up exactly where the run
// stopped — the final CSVs are identical to an uninterrupted run's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/report"
)

// knownFigs is the complete -fig vocabulary: the paper figures (bare or
// fig-prefixed, mirroring the matcher in run), "all", and the auxiliary
// experiments (exact-name opt-ins). The dispatch below silently skips
// anything it does not match, so admission is checked against this set
// first.
var knownFigs = map[string]bool{
	"all": true,
	"3":   true, "fig3": true,
	"4": true, "fig4": true,
	"5": true, "fig5": true,
	"6": true, "fig6": true,
	"traj": true, "scenarios": true, "churn": true, "predict": true,
}

// figUsage is the valid-values list printed with the unknown-fig error.
const figUsage = "3, 4, 5, 6 (optionally fig-prefixed), all, traj, scenarios, churn, predict"

// prog prefixes every diagnostic.
const prog = "kpart-experiments"

func main() {
	var (
		fig          = flag.String("fig", "all", "which figure to run: 3, 4, 5, 6, or all; auxiliary experiments: traj, scenarios (topology × fairness), churn (crash survival), predict (twin predictions vs simulation)")
		trials       = flag.Int("trials", harness.DefaultTrials, "trials per parameter point")
		seed         = flag.Uint64("seed", harness.DefaultSeed, "root seed")
		outDir       = flag.String("out", "results", "directory for CSV output")
		workers      = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		quick        = flag.Bool("quick", false, "shrink all sweeps for a fast smoke run")
		nmax         = flag.Int("nmax", 60, "fig3/4: maximum n")
		fig6max      = flag.Int("fig6max", 12, "fig6: largest k (divisor of 960)")
		engine       = flag.String("engine", "agent", "simulation backend: agent, count or batch (count skips null runs, same distribution; batch aggregates interactions per batch, fastest at large n)")
		debugAddr    = flag.String("debug-addr", "", "serve pprof, /debug/vars and /metrics on this address (e.g. :6060)")
		metrics      = flag.Bool("metrics", false, "record harness metrics; snapshot written to <out>/metrics.jsonl")
		resume       = flag.Bool("resume", false, "resume from existing <out>/<fig>.journal files instead of starting fresh")
		trialTimeout = flag.Duration("trial-timeout", 0, "per-trial wall deadline (0 = none); timed-out trials are retried under derived seeds")
		retries      = flag.Int("retries", 0, "extra attempts for transiently failed trials (deterministic retry seeds)")
	)
	flag.Parse()

	// Unknown -fig values fail loudly before any work: the dispatch below
	// matches by name, and a typo ("-fig 7", "-fig figure6") used to fall
	// through every matcher and exit 0 having run nothing — easy to read
	// as "done" at the end of a long scripted campaign.
	if !knownFigs[*fig] {
		fmt.Fprintf(os.Stderr, "%s: unknown -fig %q; valid values: %s\n", prog, *fig, figUsage)
		os.Exit(2)
	}

	// Observability: with -metrics or -debug-addr the parallel trial
	// runner records per-trial wall times, interaction histograms,
	// convergence counters, and the resilience counters
	// (retries/timeouts/canceled/resumed); /debug/vars and /metrics expose
	// them live during a long sweep, and the snapshot lands next to the
	// CSV/JSON results — including on an interrupted exit.
	reg, _, err := cli.Debug(prog, *debugAddr, *metrics)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(2)
	}

	eng, err := harness.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(2)
	}

	if *quick {
		if *trials == harness.DefaultTrials {
			*trials = 10
		}
		if *nmax == 60 {
			*nmax = 30
		}
		if *fig6max == 12 {
			*fig6max = 6
		}
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	opts := harness.RunOptions{TrialTimeout: *trialTimeout, Retries: *retries}

	flushMetrics := func() {
		if !reg.Enabled() {
			return
		}
		path, err := harness.SaveSnapshotJSONL(*outDir, "metrics.jsonl", reg.Snapshot())
		if err != nil {
			cli.Finish(prog, nil, fmt.Errorf("writing metrics: %w", err))
		}
		fmt.Println("wrote", path)
	}

	// run executes one experiment when want holds, checkpointing its
	// trials to <out>/<name>.journal. The campaign meta string ties the
	// journal to this exact sweep shape, so -resume refuses a journal
	// written under different parameters.
	run := func(want bool, name, title string, f func(ctx context.Context, opts harness.RunOptions) error) {
		if !want {
			return
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", title)
		meta := fmt.Sprintf("%s seed=%d trials=%d engine=%s nmax=%d fig6max=%d quick=%t",
			name, *seed, *trials, *engine, *nmax, *fig6max, *quick)
		j, err := cli.OpenJournal(prog, filepath.Join(*outDir, name+".journal"), meta, *resume)
		if err != nil {
			cli.Finish(prog, nil, fmt.Errorf("%s: %w", name, err))
		}
		o := opts
		o.Journal = j
		err = f(ctx, o)
		if errors.Is(err, context.Canceled) {
			flushMetrics()
		}
		cli.Finish(prog, j, err)
		fmt.Printf("(%s done in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	// A paper figure runs under its bare or fig-prefixed name and "all".
	figure := func(n string) bool { return *fig == "all" || *fig == n || *fig == "fig"+n }

	run(figure("3"), "fig3", "Figure 3", func(ctx context.Context, o harness.RunOptions) error {
		return fig3(ctx, o, *trials, *seed, *outDir, *workers, *nmax, false, eng)
	})
	run(figure("4"), "fig4", "Figure 4", func(ctx context.Context, o harness.RunOptions) error {
		return fig3(ctx, o, *trials, *seed, *outDir, *workers, *nmax, true, eng)
	})
	run(figure("5"), "fig5", "Figure 5", func(ctx context.Context, o harness.RunOptions) error {
		return fig5(ctx, o, *trials, *seed, *outDir, *workers, *quick, eng)
	})
	run(figure("6"), "fig6", "Figure 6", func(ctx context.Context, o harness.RunOptions) error {
		return fig6(ctx, o, *trials, *seed, *outDir, *workers, *fig6max, eng)
	})
	// Auxiliary experiments are opt-in (exact -fig match, never part of
	// "all"): they chart behavior outside the paper's model, with the
	// same journal/resume plumbing as the figures.
	run(*fig == "scenarios", "scenarios", "scenarios (auxiliary)", func(ctx context.Context, o harness.RunOptions) error {
		return scenariosExp(ctx, o, *trials, *seed, *outDir, *workers)
	})
	run(*fig == "churn", "churn", "churn (auxiliary)", func(ctx context.Context, o harness.RunOptions) error {
		return churnExp(ctx, o, *trials, *seed, *outDir, *workers)
	})
	run(*fig == "predict", "predict", "predict (auxiliary)", func(ctx context.Context, o harness.RunOptions) error {
		return predictExp(ctx, o, *trials, *seed, *outDir, *workers, *fig6max, eng)
	})
	flushMetrics()
	if *fig == "traj" {
		start := time.Now()
		fmt.Println("=== Convergence trajectories (auxiliary) ===")
		if err := traj(*trials, *seed, *outDir); err != nil {
			cli.Finish(prog, nil, fmt.Errorf("traj: %w", err))
		}
		fmt.Printf("(trajectories done in %v)\n", time.Since(start).Round(time.Millisecond))
	}
}

// traj renders the auxiliary convergence-trajectory experiment: mean
// group-size spread over elapsed interactions, per k.
func traj(trials int, seed uint64, outDir string) error {
	cfg := harness.TrajectoryConfig{N: 60, Ks: []int{3, 4, 6}, Trials: trials, Seed: seed}
	if cfg.Trials > 30 {
		cfg.Trials = 30
	}
	series, err := harness.RunTrajectory(cfg)
	if err != nil {
		return err
	}
	fmt.Print(harness.TrajectoryChart(series).String())
	path, err := harness.WriteCSVFile(outDir, "trajectory.csv", harness.TrajectoryTable(series))
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func fig3(ctx context.Context, opts harness.RunOptions, trials int, seed uint64, outDir string, workers, nmax int, grouping bool, eng harness.Engine) error {
	cfg := harness.Fig3Config{
		Ks: []int{4, 6, 8}, NMax: nmax, NStep: 1,
		Trials: trials, Seed: seed, Workers: workers, Grouping: grouping, Engine: eng,
	}
	series, err := harness.RunFig3Ctx(ctx, cfg, opts)
	if err != nil {
		return err
	}
	name := "fig3"
	if grouping {
		name = "fig4"
	}
	if !grouping {
		chart := &report.LineChart{
			Title:  "Figure 3: interactions to stabilize vs population size n",
			XLabel: "n", YLabel: "mean interactions",
		}
		for _, s := range series {
			chart.Series = append(chart.Series, harness.ToSeries(s))
		}
		fmt.Print(chart.String())
		// The paper's observation: jaggedness with period k.
		for _, s := range series {
			fmt.Printf("k=%d: local dips where n mod k is small — inspect the CSV column n mod %d\n", s.K, s.K)
		}
	} else {
		for _, s := range series {
			fmt.Print(harness.GroupingBars(s).String())
			if _, err := harness.WriteCSVFile(outDir, fmt.Sprintf("fig4_k%d.csv", s.K), harness.GroupingTable(s)); err != nil {
				return err
			}
		}
	}
	path, err := harness.WriteCSVFile(outDir, name+".csv", harness.SweepTable(series))
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	jpath, err := harness.SaveJSON(outDir, name+".json", harness.ResultDoc{
		Experiment: name, Seed: seed, Trials: trials, Series: series,
	})
	if err != nil {
		return err
	}
	fmt.Println("wrote", jpath)
	return nil
}

func fig5(ctx context.Context, opts harness.RunOptions, trials int, seed uint64, outDir string, workers int, quick bool, eng harness.Engine) error {
	cfg := harness.Fig5Config{Trials: trials, Seed: seed, Workers: workers, Engine: eng}
	if quick {
		cfg.Base = 60
		cfg.NFactors = []int{1, 2, 3, 4}
	}
	series, err := harness.RunFig5Ctx(ctx, cfg, opts)
	if err != nil {
		return err
	}
	chart := &report.LineChart{
		Title:  "Figure 5: interactions vs n (n mod k = 0)",
		XLabel: "n", YLabel: "mean interactions",
	}
	for _, s := range series {
		chart.Series = append(chart.Series, harness.ToSeries(s))
	}
	fmt.Print(chart.String())
	// Growth analysis: super-linear but sub-exponential in n.
	for _, s := range series {
		rs := harness.ToSeries(s)
		readout, err := harness.GrowthReadout(fmt.Sprintf("fig5 k=%d", s.K), rs.X, rs.Y)
		if err != nil {
			return err
		}
		fmt.Println(readout)
	}
	path, err := harness.WriteCSVFile(outDir, "fig5.csv", harness.SweepTable(series))
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	jpath, err := harness.SaveJSON(outDir, "fig5.json", harness.ResultDoc{
		Experiment: "fig5", Seed: seed, Trials: trials, Series: series,
	})
	if err != nil {
		return err
	}
	fmt.Println("wrote", jpath)
	return nil
}

func fig6(ctx context.Context, opts harness.RunOptions, trials int, seed uint64, outDir string, workers, kmax int, eng harness.Engine) error {
	var ks []int
	for _, k := range []int{2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24} {
		if k <= kmax {
			ks = append(ks, k)
		}
	}
	cfg := harness.Fig6Config{Ks: ks, Trials: trials, Seed: seed, Workers: workers, Engine: eng}
	pts, err := harness.RunFig6Ctx(ctx, cfg, opts)
	if err != nil {
		return err
	}
	s := harness.Fig6Series(pts)
	chart := &report.LineChart{
		Title:  "Figure 6: interactions vs k at n=960 (log scale)",
		XLabel: "k", YLabel: "mean interactions", LogY: true,
		Series: []report.Series{s},
	}
	fmt.Print(chart.String())
	readout, err := harness.GrowthReadout("fig6", s.X, s.Y)
	if err != nil {
		return err
	}
	fmt.Println(readout)
	fmt.Print(harness.Fig6Table(pts).String())
	path, err := harness.WriteCSVFile(outDir, "fig6.csv", harness.Fig6Table(pts))
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	jpath, err := harness.SaveJSON(outDir, "fig6.json", harness.ResultDoc{
		Experiment: "fig6", Seed: seed, Trials: trials, Points: pts,
	})
	if err != nil {
		return err
	}
	fmt.Println("wrote", jpath)
	return nil
}

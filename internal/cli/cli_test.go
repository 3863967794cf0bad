package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestSignalContextCancelsOnSIGINT(t *testing.T) {
	ctx, stop := SignalContext()
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v, want Canceled", ctx.Err())
	}
}

func TestOpenJournalFreshAndResumed(t *testing.T) {
	if j, err := OpenJournal("prog", "", "m", true); j != nil || err != nil {
		t.Fatalf("empty path: journal %v, err %v; want none", j, err)
	}
	path := filepath.Join(t.TempDir(), "runs", "x.journal")
	spec := harness.TrialSpec{N: 12, K: 3, Seed: 1}

	j, err := OpenJournal("prog", path, "m", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(spec, harness.TrialResult{Spec: spec, Interactions: 9}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, err = OpenJournal("prog", path, "m", true)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := j.Lookup(spec); !ok || e.Result.Interactions != 9 {
		t.Fatalf("resumed journal lost the trial: %+v %t", e, ok)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenJournal("prog", path, "other campaign", true); err == nil {
		t.Fatal("resumed a journal written under a different meta")
	}

	j, err = OpenJournal("prog", path, "other campaign", false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("fresh journal holds %d trials", j.Len())
	}
}

func TestOutcome(t *testing.T) {
	canceled := fmt.Errorf("fig3: harness: batch interrupted: %w", context.Canceled)
	closeErr := errors.New("disk full")
	for _, tc := range []struct {
		name      string
		path      string
		err, cerr error
		code      int
		want      []string
	}{
		{name: "ok", path: "r/fig3.journal", code: 0},
		{name: "failure", path: "r/fig3.journal", err: errors.New("boom"), code: 1, want: []string{"prog: boom"}},
		{name: "interrupted", path: "r/fig3.journal", err: canceled, code: 130,
			want: []string{"prog: interrupted", "completed trials saved in r/fig3.journal", "rerun with -resume"}},
		{name: "interrupted without journal", err: canceled, code: 130,
			want: []string{"prog: interrupted", "run with -journal"}},
		{name: "close failure", path: "r/fig3.journal", cerr: closeErr, code: 1,
			want: []string{"closing journal r/fig3.journal: disk full"}},
		{name: "interrupted, close failure", path: "r/fig3.journal", err: canceled, cerr: closeErr, code: 1,
			want: []string{"closing journal r/fig3.journal: disk full", "batch interrupted"}},
	} {
		msg, code := outcome("prog", tc.path, tc.err, tc.cerr)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (message %q)", tc.name, code, tc.code, msg)
		}
		if len(tc.want) == 0 && msg != "" {
			t.Errorf("%s: message %q, want none", tc.name, msg)
		}
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: message %q lacks %q", tc.name, msg, w)
			}
		}
	}
}

func TestDebugServesMetricsAndVars(t *testing.T) {
	defer harness.SetMetrics(nil)
	if reg, ln, err := Debug("kpart-cli-off", "", false); err != nil || ln != nil || reg.Enabled() {
		t.Fatalf("no address, no snapshot: registry enabled=%t, listener %v, err %v", reg.Enabled(), ln, err)
	}

	reg, ln, err := Debug("kpart-cli-test", "127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if !reg.Enabled() || harness.Metrics() != reg {
		t.Fatal("debug registry not enabled and installed for harness trials")
	}
	if _, err := harness.RunTrialCtx(context.Background(), harness.TrialSpec{N: 12, K: 3, Seed: 1}, harness.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	for path, want := range map[string]string{
		"/metrics":    `harness_trials_total{registry="kpart_cli_test"} 1`,
		"/debug/vars": `"kpart_cli_test"`,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: status %d, body lacks %q", path, resp.StatusCode, want)
		}
		if path == "/debug/vars" && !strings.Contains(string(body), "harness/trials") {
			t.Errorf("GET /debug/vars: no harness series")
		}
	}
}

// Package cli holds the process plumbing the long-running kpart binaries
// share: the interrupt context, the -debug-addr server and its metrics
// registry, the trial journal behind -journal/-resume, and the mapping
// from a run's outcome to a message and an exit status. Each binary keeps
// its own flags; this package only makes the decisions they have in
// common, so that every binary interrupts, resumes and exposes metrics
// the same way.
package cli

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/harness"
	"repro/internal/obs"
)

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM: dispatch stops, in-flight trials abort at their next poll, and
// completed ones are already journaled. Cancellation also restores the
// default signal handling, so a second signal kills the process the
// default way. The returned stop releases the signal registration early.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// Debug sets up a binary's metrics. The registry (named after prog, with
// '-' mapped to '_') is enabled when record is set — the binary writes a
// snapshot — or a debug address is given; it is then published on expvar
// (/debug/vars) and on /metrics, and installed as the registry harness
// trials record into. Otherwise Debug returns the no-op registry. With a
// non-empty addr it also serves pprof, /debug/vars and /metrics there,
// prints where, and returns the listener (nil without addr).
func Debug(prog, addr string, record bool) (*obs.Registry, net.Listener, error) {
	if !record && addr == "" {
		return obs.Nop(), nil, nil
	}
	reg := obs.New(strings.ReplaceAll(prog, "-", "_"))
	reg.PublishExpvar()
	reg.PublishPrometheus()
	harness.SetMetrics(reg)
	if addr == "" {
		return reg, nil, nil
	}
	ln, err := obs.ServeDebug(addr)
	if err != nil {
		return reg, nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: debug server on http://%s/debug/pprof (vars at /debug/vars, metrics at /metrics)\n", prog, ln.Addr())
	return reg, ln, nil
}

// OpenJournal opens a binary's trial journal at path under the campaign
// meta string. With resume it reloads the journal (creating it when
// missing, refusing one written under a different meta) and reports how
// many trials it already holds; otherwise it starts a fresh journal. An
// empty path means no journal: it returns nil.
func OpenJournal(prog, path, meta string, resume bool) (*harness.Journal, error) {
	if path == "" {
		return nil, nil
	}
	if !resume {
		return harness.CreateJournal(path, meta)
	}
	j, err := harness.OpenJournal(path, meta)
	if err == nil && j.Len() > 0 {
		fmt.Fprintf(os.Stderr, "%s: resuming, %d trials already journaled in %s\n", prog, j.Len(), path)
	}
	return j, err
}

// outcome maps a run's error and its journal's Close error to the
// message a binary prints on stderr and its exit status:
//
//   - 0 and no message when both are nil;
//   - 130 with the resume hint when the run was interrupted
//     (context.Canceled) and the journal closed cleanly;
//   - 1 on any other failure, a failed Close included: the resume story
//     depends on the journal's tail being durable, so "completed trials
//     saved" cannot be claimed after a failed close.
//
// journalPath is "" for a run without a journal.
func outcome(prog, journalPath string, err, closeErr error) (string, int) {
	var lines []string
	code := 0
	if closeErr != nil {
		lines = append(lines, fmt.Sprintf("%s: closing journal %s: %v", prog, journalPath, closeErr))
		code = 1
	}
	switch {
	case err == nil:
	case closeErr == nil && errors.Is(err, context.Canceled):
		hint := " (run with -journal to make runs resumable)"
		if journalPath != "" {
			hint = "; completed trials saved in " + journalPath + " — rerun with -resume to continue"
		}
		lines = append(lines, prog+": interrupted"+hint)
		code = 130
	default:
		lines = append(lines, fmt.Sprintf("%s: %v", prog, err))
		code = 1
	}
	return strings.Join(lines, "\n"), code
}

// Finish closes j (which may be nil) and ends the process with outcome's
// message and status when the run failed, was interrupted, or the close
// failed. It returns only when err is nil and the journal closed
// cleanly.
func Finish(prog string, j *harness.Journal, err error) {
	var path string
	var closeErr error
	if j != nil {
		path, closeErr = j.Path(), j.Close()
	}
	msg, code := outcome(prog, path, err, closeErr)
	if msg != "" {
		fmt.Fprintln(os.Stderr, msg)
	}
	if code != 0 {
		os.Exit(code)
	}
}

package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/obs/span"
)

// goldenTrials pins, per spec, a sha256 of the JSON-encoded TrialResult
// and — for the explicit-engine specs — of the exported span identity
// (wall fields stripped). A change to how a trial is run or observed
// must leave every hash unchanged; a hash that moves means a result or
// a span changed for a fixed SpecKey. There is deliberately no update
// flag: a legitimate change edits the expected hash here, in the diff.
var goldenTrials = []struct {
	name   string
	spec   TrialSpec
	result string
	spans  string // "" for scenario specs, whose span tree may grow
}{
	{"agent", TrialSpec{N: 60, K: 4, Seed: 1},
		"47169662bdb0ad27a29314050296c384ef854997c855a0e105d0aca7a44e9800",
		"7fec82aa2ee854d6bc4e50a0c6b37dfa2fe6f0ec6f3621cc5e33a5bdff91178f"},
	{"agent grouping", TrialSpec{N: 60, K: 5, Seed: 2, Grouping: true},
		"5119accd5698d79bc4bf06e3655812080517e74df9687179040193df302e36b8",
		"0ec26cf14474bcc4f27b10a28d3c9badcbc001a4981b62a2af70e0d688fb4bc3"},
	{"count", TrialSpec{N: 120, K: 4, Seed: 3, Engine: EngineCount},
		"85c0df76ba5e73f8cab4468e806a7aa1798c1c2739198d788e4efd91f94d3d88",
		"a88aceab7e27c4635d58b9fc344f1d9df1401b788a94d6c3bdcc7e9572cb2059"},
	{"count grouping", TrialSpec{N: 120, K: 6, Seed: 4, Engine: EngineCount, Grouping: true},
		"9688636d4b69215847ecb00a1ceaa13b59e39349791d85354d1dac2ff2e0b1a6",
		"e1e22312e401e3c93dd783f37bd399a8c4ce4f4cd912945929cfbdf85575a739"},
	{"batch adaptive", TrialSpec{N: 5000, K: 4, Seed: 5, Engine: EngineBatch},
		"c05f4505e429872d598f138037b6f26d42db618a8850c18acffb27fe2c1b35d1",
		"255efc0af60757be222be05eb9eb85eeeea2a26ab5fdd0e1a9a5e8ccaef923b1"},
	{"batch adaptive grouping", TrialSpec{N: 3000, K: 5, Seed: 6, Engine: EngineBatch, Grouping: true},
		"674b288be8b8fc4799c2d15f7b79babee010eb41df3c273c61af085bccad0aa6",
		"721af6d8896eb9a7e73d14404ec9b584581570f2dfd6b30b404fa7a175abf1b4"},
	{"batch matching", TrialSpec{N: 2000, K: 3, Seed: 7, Engine: EngineBatch, BatchSize: 100},
		"393547b27f4c4ef8ee3e4fb3f2a75027ec472f31048c699910b5baee98e986b4",
		"63a73c028280fb34a5cc3fe88599d08737324473d10b36940d1c390f9db98b37"},
	{"ring scenario", TrialSpec{N: 12, K: 3, Seed: 4, MaxInteractions: 5_000_000, Grouping: true,
		Topology: TopologySpec{Kind: TopologyRing}},
		"ee4a62f2cd80f461c479c39a6f0c0b4f94e3523c0c01a08a0355cf087acb2dfc", ""},
	{"weak fairness scenario", TrialSpec{N: 12, K: 3, Seed: 5, MaxInteractions: 100_000,
		Fairness: FairnessWeak},
		"6c41d5b3198d60d26d72cb1cf73844e61336ba598f212808641106b850345f9a", ""},
	{"crash churn scenario", TrialSpec{N: 15, K: 3, Seed: 3, MaxInteractions: 5_000_000,
		Churn: ChurnSpec{At: 200, Interval: 200, Events: 2, Leaves: 1, Crash: true}},
		"7136cd50dadaab90637dedbddca80453db1996adb10b5e9ad6720edb303250c2", ""},
}

func sha256JSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenTrialHashes runs each golden spec untraced (the result
// hash) and traced (the span hash; the traced result must hash the same
// as the untraced one, since tracing never feeds back into a result).
func TestGoldenTrialHashes(t *testing.T) {
	for _, g := range goldenTrials {
		res, err := RunTrial(g.spec)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := sha256JSON(t, res); got != g.result {
			t.Errorf("%s: result hash %s, want %s (%+v)", g.name, got, g.result, res)
		}

		col := span.NewCollector(nil)
		root := col.TraceForSpec(SpecKey(g.spec)).Root("request")
		tres, err := RunTrialCtx(span.NewContext(context.Background(), root), g.spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s traced: %v", g.name, err)
		}
		root.End()
		if got := sha256JSON(t, tres); got != g.result {
			t.Errorf("%s: traced result hash %s, want %s", g.name, got, g.result)
		}
		if g.spans == "" {
			continue
		}
		if got := sha256JSON(t, identity(col.Export())); got != g.spans {
			t.Errorf("%s: span hash %s, want %s", g.name, got, g.spans)
		}
	}
}

package twin

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// goldenTwin pins the float64 bits of predictions on both rungs, with
// milestones: the exact rung on all-dense chains ((9,4), (12,4)), on a
// chain with one Gauss–Seidel level ((12,6)) and on one with three,
// which also takes the transposed (occupancy) path ((24,4)); the
// mean-field rung where its cached endgame moments and per-level
// milestone solves answer ((10⁵,6), (10⁶,4)). A solver change must
// leave every bit in place. There is deliberately no update flag: a
// legitimate change edits the expected values here, in the diff.
//
// tail holds the bits of the last (up to nine) milestones — every
// milestone on the exact points, the endgame-solved ones on the
// mean-field points; msSum and msHash (FNV-1a over the little-endian
// bits, in order) cover the rest.
var goldenTwin = []struct {
	name      string
	lumped    bool
	n, k      int
	mean, std uint64
	count     int
	msSum     uint64
	msHash    uint64
	tail      []uint64
}{
	{"lumped 9,4", true, 9, 4, 0x405def619b005623, 0x405b790e6044d562, 2, 0x40620a33e3d09ed3, 0x4e793ee58b9a232,
		[]uint64{0x40389418b2839e13, 0x405def619b005621}},
	{"lumped 12,4", true, 12, 4, 0x406a19e8bcef9b42, 0x40603f74fb248211, 3, 0x40733d6365b3a68b, 0xe79b687e2c0fc2ec,
		[]uint64{0x403880138c471efc, 0x4052a1b739dd9bec, 0x406a19e8bcef9b41}},
	{"lumped 12,6", true, 12, 6, 0x40801d53ee51936e, 0x407689843e036a06, 2, 0x4085277c9edf7f7e, 0x1886c2bf067f8099,
		[]uint64{0x406428a2c23df429, 0x40801d53ee500274}},
	{"lumped 24,4", true, 24, 4, 0x408ba3a9f4336bfd, 0x407f26c380c93b9b, 6, 0x409915ce0f40b17d, 0xeb9b3abeafbd16e3,
		[]uint64{0x403a77ba0bb83013, 0x404b290052e5f440, 0x405905bc53b310df, 0x4066a33670482d2c, 0x4076703e5c8f0c5c, 0x408ba3a9f4254ea0}},
	{"meanfield 1e5,6", false, 100_000, 6, 0x4216c89becf246ca, 0x420894fc268653ea, 16666, 0x4242350abce81a2f, 0x791916a6ac1eec12,
		[]uint64{0x41d481650ebf3f97, 0x41d719f60568992c, 0x41da756726ba2293, 0x41def8465a62d13b, 0x41e2ad66a4906386,
			0x41e78f927a961c7e, 0x41f0023eedd6eec1, 0x41f90d75d5bd9f1a, 0x420f69206c3987e2}},
	{"meanfield 1e6,4", false, 1_000_000, 4, 0x4274ef58135b24dc, 0x4267e8b25a7955db, 250000, 0x42a229a416c33f2a, 0x20cc06a52430f394,
		[]uint64{0x42327786b01fb8f2, 0x423513aa6592b6a5, 0x42388be4ebaf1da5, 0x423d627216ff6743, 0x42424cd0a0cd9dda,
			0x42484271ab3b775c, 0x4251b2d6ebdaf899, 0x426011379c61fcd2, 0x4274ef58135b24dc}},
}

// TestGoldenTwinBits requires the pinned bits exactly on amd64. Other
// architectures may fuse multiply-adds, so there each pinned value must
// agree to 1e-12 relative and the milestone hash is not compared.
func TestGoldenTwinBits(t *testing.T) {
	exact := runtime.GOARCH == "amd64"
	check := func(name, what string, got float64, want uint64) {
		t.Helper()
		w := math.Float64frombits(want)
		if exact && math.Float64bits(got) != want {
			t.Errorf("%s: %s = %v (%#x), want %v (%#x)", name, what, got, math.Float64bits(got), w, want)
		} else if !exact && math.Abs(got-w) > 1e-12*math.Abs(w) {
			t.Errorf("%s: %s = %v, want %v within 1e-12", name, what, got, w)
		}
	}
	for _, g := range goldenTwin {
		var m Model = NewMeanField()
		if g.lumped {
			m = NewLumped(DefaultStateBudget)
		}
		pr, err := m.Predict(Spec{N: g.n, K: g.k, Milestones: true})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if pr.Model != m.Name() {
			t.Fatalf("%s: answered by %s", g.name, pr.Model)
		}
		check(g.name, "mean", pr.ExpectedInteractions, g.mean)
		check(g.name, "std", pr.StdInteractions, g.std)
		if len(pr.Milestones) != g.count {
			t.Fatalf("%s: %d milestones, want %d", g.name, len(pr.Milestones), g.count)
		}
		h := fnv.New64a()
		var buf [8]byte
		sum := 0.0
		for _, v := range pr.Milestones {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
			sum += v
		}
		check(g.name, "milestone sum", sum, g.msSum)
		if exact && h.Sum64() != g.msHash {
			t.Errorf("%s: milestone hash %#x, want %#x", g.name, h.Sum64(), g.msHash)
		}
		off := g.count - len(g.tail)
		for i, want := range g.tail {
			check(g.name, fmt.Sprintf("milestone %d", off+i+1), pr.Milestones[off+i], want)
		}
	}
}

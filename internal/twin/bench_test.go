package twin

import "testing"

var benchPrediction Prediction

// BenchmarkPredict times cold predictions (a fresh model per call) on the
// exact rung with one and with three Gauss–Seidel levels, and on the
// mean-field rung at n = 10⁷. Profile with
//
//	go test -run '^$' -bench Predict -cpuprofile cpu.out ./internal/twin
func BenchmarkPredict(b *testing.B) {
	for _, bc := range []struct {
		name   string
		lumped bool
		n, k   int
	}{
		{"lumped/n=12/k=6", true, 12, 6},
		{"lumped/n=24/k=4", true, 24, 4},
		{"meanfield/n=1e7/k=4", false, 10_000_000, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var m Model = NewMeanField()
				if bc.lumped {
					m = NewLumped(DefaultStateBudget)
				}
				pr, err := m.Predict(Spec{N: bc.n, K: bc.k})
				if err != nil {
					b.Fatal(err)
				}
				benchPrediction = pr
			}
		})
	}
}

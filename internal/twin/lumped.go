package twin

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/protocol"
)

// Rung 1: the exactly lumped chain.
//
// Lemma 1 (core.CheckInvariant) makes every reachable configuration's
// g-counts a pure function of the reduced vector
//
//	(a, b, m2..m(k−1), d1..d(k−2), c)  with  a = #initial, b = #initial',
//	                                        c = #gk,
//
// so dropping the g-counts loses nothing: the reduced chain is isomorphic
// to the full configuration chain.
//
// Tempting but wrong: a further 2× from canonicalizing the a ↔ b parity
// swap. Rules 1–8 do treat initial and initial' as mirror images, but
// rules 9 and 10 emit specifically `initial` — never initial' — so the
// swap is NOT an automorphism once d-states exist (k ≥ 3): from (a, b)
// rule 9 leads to (a+1, b), while from the mirror (b, a) it leads to
// (b+1, a), which is not the mirror of the former. The ~0.3% bias that
// lumping introduced is exactly what rung 1's ≤0.1% contract exists to
// catch; the chain keeps both parities.
//
// #gk is monotone non-decreasing along every execution: rule 7 is the
// only producer of gk and no rule consumes gk or g(k−1), so the chain is
// layered by c. The solvers exploit the layering twice — backward
// hitting-time passes become block back-substitution (each level's system
// only references already-solved higher levels), and a single forward
// occupancy pass yields EVERY milestone at once, because the time until
// #gk reaches j is exactly the total time spent in levels c < j.

// ledge is one outgoing lumped transition.
type ledge struct {
	To int
	P  float64
}

// lchain is the lumped chain, built either from the initial configuration
// (cMin = 0, reachable states only, via BFS) or as the level-restricted
// endgame sub-chain c ≥ cMin used by the mean-field rung's handoff.
type lchain struct {
	p    *core.Protocol
	n, k int
	cMin int

	nodes [][]int32 // reduced vectors
	index map[string]int
	out   [][]ledge // per node, sorted by To; targets never at lower levels
	self  []float64 // self-loop probability per node
	// outMass[i] = Σ out edge probabilities = 1 − self[i], but summed
	// directly: at large n, self approaches 1 and computing 1 − self
	// cancels away most of the significand, while the direct sum keeps
	// full precision. Every solver divides by this.
	outMass []float64
	stable  []bool
	// levels[c − cMin] lists node ids with #gk = c, in build order.
	levels [][]int
	start  int // node id of the all-initial configuration; −1 for endgame chains

	// Lazily solved first/second moments of the stable hitting time,
	// shared across Predict calls on a cached chain.
	mu      sync.Mutex
	solvedE []float64
	solvedM []float64
}

// vecLen returns the reduced-vector length for k: a, b, k−2 m-counts,
// k−2 d-counts, c.
func vecLen(k int) int { return 2*k - 1 }

// vecKey serializes a reduced vector for map lookup.
func vecKey(vec []int32) string {
	buf := make([]byte, 4*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}

// decodeFull expands a reduced vector into a dense state-count vector,
// reconstructing the g-counts through the Lemma 1 identity.
func decodeFull(p *core.Protocol, vec []int32, counts []int) {
	k := p.K()
	for i := range counts {
		counts[i] = 0
	}
	counts[0] = int(vec[0])
	counts[1] = int(vec[1])
	for i := 2; i <= k-1; i++ {
		counts[p.M(i)] = int(vec[i])
	}
	for i := 1; i <= k-2; i++ {
		counts[p.D(i)] = int(vec[k+i-1])
	}
	c := int(vec[2*k-2])
	mSuffix, dSuffix := 0, 0
	for x := k; x >= 1; x-- {
		if x+1 <= k-1 {
			mSuffix += counts[p.M(x+1)]
		}
		if x <= k-2 {
			dSuffix += counts[p.D(x)]
		}
		counts[p.G(x)] = mSuffix + dSuffix + c
	}
}

// encodeReduced extracts the reduced vector from a dense state-count
// vector.
func encodeReduced(p *core.Protocol, counts []int, vec []int32) {
	k := p.K()
	vec[0], vec[1] = int32(counts[0]), int32(counts[1])
	for i := 2; i <= k-1; i++ {
		vec[i] = int32(counts[p.M(i)])
	}
	for i := 1; i <= k-2; i++ {
		vec[k+i-1] = int32(counts[p.D(i)])
	}
	vec[2*k-2] = int32(counts[p.G(k)])
}

// level returns a reduced vector's #gk.
func level(vec []int32) int { return int(vec[len(vec)-1]) }

// transitions computes node id's lumped outgoing distribution: the
// self-loop probability plus one edge per other canonical vector, in
// discovery order. Target vectors not yet in the chain are appended as
// new nodes, in the order they are met. edgeAt is scratch space mapping
// a target id to its edge's position.
func (ch *lchain) transitions(id int, counts, next []int, rvec []int32, edgeAt map[int]int) (self float64, edges []ledge) {
	p := ch.p
	decodeFull(p, ch.nodes[id], counts)
	total := float64(ch.n) * float64(ch.n-1)
	clear(edgeAt)
	S := p.NumStates()
	for s1 := 0; s1 < S; s1++ {
		c1 := counts[s1]
		if c1 == 0 {
			continue
		}
		for s2 := 0; s2 < S; s2++ {
			c2 := counts[s2]
			if s2 == s1 {
				c2--
			}
			if c2 <= 0 {
				continue
			}
			w := float64(c1) * float64(c2) / total
			out, _ := p.Delta(protocol.State(s1), protocol.State(s2))
			if int(out.P) == s1 && int(out.Q) == s2 {
				self += w
				continue
			}
			copy(next, counts)
			next[s1]--
			next[s2]--
			next[out.P]++
			next[out.Q]++
			encodeReduced(p, next, rvec)
			key := vecKey(rvec)
			to, ok := ch.index[key]
			if !ok {
				to = len(ch.nodes)
				ch.index[key] = to
				ch.nodes = append(ch.nodes, append([]int32(nil), rvec...))
			}
			if to == id {
				self += w
				continue
			}
			e, seen := edgeAt[to]
			if !seen {
				e = len(edges)
				edgeAt[to] = e
				edges = append(edges, ledge{To: to})
			}
			edges[e].P += w
		}
	}
	return self, edges
}

// buildLumped builds the reachable lumped chain from the all-initial
// configuration by BFS. It fails once the node count exceeds budget, so
// rung selection can probe cheaply.
func buildLumped(p *core.Protocol, n, budget int) (*lchain, error) {
	ch := &lchain{p: p, n: n, k: p.K(), start: 0}
	L := vecLen(ch.k)
	init := make([]int32, L)
	init[0] = int32(n)
	return ch, ch.grow([][]int32{init}, budget)
}

// buildEndgame builds the level-restricted sub-chain of every
// Lemma-1-consistent state with #gk >= cMin — the states the chain can
// occupy once the fluid phase has filled all but the last few groups.
// Seeding with ALL states of level cMin (not just reachable ones) is
// deliberate: the mean-field handoff enters at whichever state the fluid
// trajectory rounds to.
func buildEndgame(p *core.Protocol, n, cMin, budget int) (*lchain, error) {
	ch := &lchain{p: p, n: n, k: p.K(), cMin: cMin, start: -1}
	seeds := enumerateLevel(p, n, cMin)
	if len(seeds) == 0 {
		return nil, fmt.Errorf("twin: no states at level %d for n=%d k=%d", cMin, n, p.K())
	}
	return ch, ch.grow(seeds, budget)
}

// enumerateLevel lists every reduced vector with #gk = c: all (a, b, m, d)
// splits of the residual weight n − k·c under the population identity
// n = a + b + Σ p·m_p + Σ (q+1)·d_q + k·c.
func enumerateLevel(p *core.Protocol, n, c int) [][]int32 {
	k := p.K()
	L := vecLen(k)
	residual := n - k*c
	if residual < 0 {
		return nil
	}
	// Weighted positions beyond (a, b): m_i costs i (itself plus the i−1
	// g-agents its Lemma 1 terms imply), d_i costs i+1.
	type slot struct{ idx, w int }
	var slots []slot
	for i := 2; i <= k-1; i++ {
		slots = append(slots, slot{i, i})
	}
	for i := 1; i <= k-2; i++ {
		slots = append(slots, slot{k + i - 1, i + 1})
	}
	var out [][]int32
	vec := make([]int32, L)
	vec[L-1] = int32(c)
	var rec func(si, left int)
	rec = func(si, left int) {
		if si == len(slots) {
			for a := 0; a <= left; a++ {
				v := append([]int32(nil), vec...)
				v[0], v[1] = int32(a), int32(left-a)
				out = append(out, v)
			}
			return
		}
		s := slots[si]
		for cnt := 0; cnt*s.w <= left; cnt++ {
			vec[s.idx] = int32(cnt)
			rec(si+1, left-cnt*s.w)
		}
		vec[s.idx] = 0
	}
	rec(0, residual)
	return out
}

// grow explores from the seed vectors, building nodes, edges, levels and
// the stability mask. Transitions must never descend below a node's level
// (the #gk monotonicity the solvers rely on); grow checks that instead of
// assuming it.
func (ch *lchain) grow(seeds [][]int32, budget int) error {
	p, n := ch.p, ch.n
	ch.index = make(map[string]int)
	for _, s := range seeds {
		key := vecKey(s)
		if _, ok := ch.index[key]; ok {
			continue
		}
		ch.index[key] = len(ch.nodes)
		ch.nodes = append(ch.nodes, s)
	}
	isStable, err := p.StableChecker(n)
	if err != nil {
		return fmt.Errorf("twin: %v", err)
	}
	counts := make([]int, p.NumStates())
	next := make([]int, p.NumStates())
	rvec := make([]int32, vecLen(ch.k))
	edgeAt := make(map[int]int)
	for i := 0; i < len(ch.nodes); i++ {
		if budget > 0 && len(ch.nodes) > budget {
			return fmt.Errorf("twin: lumped chain for n=%d k=%d exceeds the %d-state budget", n, ch.k, budget)
		}
		self, edges := ch.transitions(i, counts, next, rvec, edgeAt)
		ch.self = append(ch.self, self)
		// transitions leaves counts holding node i's decoded configuration.
		ch.stable = append(ch.stable, isStable(counts))
		ch.out = append(ch.out, edges)
	}
	// Levels and the monotonicity check; then sort edges for determinism
	// of the float sums (same reason markov.New sorts).
	maxLevel := 0
	for _, v := range ch.nodes {
		if l := level(v); l > maxLevel {
			maxLevel = l
		}
	}
	ch.levels = make([][]int, maxLevel-ch.cMin+1)
	for id, v := range ch.nodes {
		l := level(v)
		if l < ch.cMin {
			return fmt.Errorf("twin: node %d at level %d below floor %d", id, l, ch.cMin)
		}
		ch.levels[l-ch.cMin] = append(ch.levels[l-ch.cMin], id)
		for _, e := range ch.out[id] {
			if level(ch.nodes[e.To]) < l {
				return fmt.Errorf("twin: #gk decreased on edge %d->%d — lumping is broken", id, e.To)
			}
		}
		sort.Slice(ch.out[id], func(a, b int) bool { return ch.out[id][a].To < ch.out[id][b].To })
	}
	ch.outMass = make([]float64, len(ch.nodes))
	for id, edges := range ch.out {
		sum := 0.0
		for _, e := range edges {
			sum += e.P
		}
		ch.outMass[id] = sum
	}
	return nil
}

// Solver parameters: levels up to denseLevelCap transient nodes solve by
// dense LU (exact, immune to slow mixing within a level); larger levels
// fall back to Gauss–Seidel sweeps. The fallback is only safe at moderate
// n, where in-level transition rates are not vanishingly small — at large
// n the level sub-chains mix on the 1/n² rate scale and GS contracts too
// slowly to terminate. Endgame chains therefore never rely on it:
// chooseEndgame rejects any handoff whose floor level exceeds the dense
// cap.
const (
	lumpedTol     = 1e-12
	lumpedMaxIter = 200_000
	denseLevelCap = 800
)

// levelSystem is one #gk level's linear system over its transient nodes
//
//	outMass_i·x_i − Σ_{j ∈ level, transient} P_ij·x_j = rhs_i
//
// (or its transpose, for the forward occupancy pass), assembled once per
// pass and solved for every right-hand side the pass needs. Only edges
// between the level's transient nodes enter it, as a CSR matrix in local
// indices (position in trans). Each row keeps its node's out-edge order,
// and each transposed row the order its edges are met walking trans, so
// every float sum runs in one fixed order. A level of at most
// denseLevelCap nodes replaces the CSR form by its LU factors.
type levelSystem struct {
	trans []int     // global node ids, in local-index order
	den   []float64 // out-mass per local node: the diagonal
	// Row li's off-diagonal entries are −ps[ptr[li]:ptr[li+1]] at local
	// columns cols[ptr[li]:ptr[li+1]]; nil once factored.
	ptr  []int
	cols []int32
	ps   []float64
	// LU factors with partial pivoting: U on and above the diagonal, the
	// elimination multipliers below it, and the pivot row chosen for
	// each column.
	lu  [][]float64
	piv []int
}

// localIndex returns a node → local-index table with every entry −1. One
// table serves a whole pass: assemble fills in its level's transient
// nodes and clears them again.
func (ch *lchain) localIndex() []int32 {
	loc := make([]int32, len(ch.nodes))
	for i := range loc {
		loc[i] = -1
	}
	return loc
}

// newLevelSystem assembles the system over trans (one level's transient
// nodes) and, when the level fits denseLevelCap, factors it.
func (ch *lchain) newLevelSystem(trans []int, loc []int32, transpose bool) (*levelSystem, error) {
	ls := ch.assemble(trans, loc, transpose)
	if len(trans) <= denseLevelCap {
		if err := ls.factor(); err != nil {
			return nil, err
		}
		return ls, nil
	}
	for li, d := range ls.den {
		if d <= 0 {
			return nil, fmt.Errorf("twin: node %d is fully self-looping", trans[li])
		}
	}
	return ls, nil
}

// assemble builds the CSR form. Transitions never descend a level, so an
// edge whose target has a local index is exactly an edge between two of
// the level's transient nodes.
func (ch *lchain) assemble(trans []int, loc []int32, transpose bool) *levelSystem {
	m := len(trans)
	for li, id := range trans {
		loc[id] = int32(li)
	}
	ls := &levelSystem{trans: trans, den: make([]float64, m), ptr: make([]int, m+1)}
	for li, id := range trans {
		ls.den[li] = ch.outMass[id]
		for _, e := range ch.out[id] {
			if lj := loc[e.To]; lj >= 0 {
				row := li
				if transpose {
					row = int(lj)
				}
				ls.ptr[row+1]++
			}
		}
	}
	for li := 0; li < m; li++ {
		ls.ptr[li+1] += ls.ptr[li]
	}
	ls.cols = make([]int32, ls.ptr[m])
	ls.ps = make([]float64, ls.ptr[m])
	next := append([]int(nil), ls.ptr[:m]...)
	for li, id := range trans {
		for _, e := range ch.out[id] {
			lj := loc[e.To]
			if lj < 0 {
				continue
			}
			row, col := li, lj
			if transpose {
				row, col = int(lj), int32(li)
			}
			ls.cols[next[row]] = col
			ls.ps[next[row]] = e.P
			next[row]++
		}
	}
	for _, id := range trans {
		loc[id] = -1
	}
	return ls
}

// factor replaces the CSR form by dense LU factors: Gaussian elimination
// with partial pivoting, keeping each multiplier in the entry it zeroes
// and each column's pivot row, so solveDense can replay on any
// right-hand side exactly the operations the elimination applies to it.
func (ls *levelSystem) factor() error {
	m := len(ls.trans)
	A := make([][]float64, m)
	flat := make([]float64, m*m)
	for li := range A {
		A[li] = flat[li*m : (li+1)*m : (li+1)*m]
		A[li][li] = ls.den[li]
		for k := ls.ptr[li]; k < ls.ptr[li+1]; k++ {
			A[li][ls.cols[k]] -= ls.ps[k]
		}
	}
	ls.ptr, ls.cols, ls.ps = nil, nil, nil
	piv := make([]int, m)
	for col := 0; col < m; col++ {
		p := col
		for r := col + 1; r < m; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[p][col]) {
				p = r
			}
		}
		if A[p][col] == 0 {
			return fmt.Errorf("twin: singular level system at column %d", col)
		}
		piv[col] = p
		A[col], A[p] = A[p], A[col]
		inv := 1 / A[col][col]
		pivRow := A[col][col+1:]
		for r := col + 1; r < m; r++ {
			f := A[r][col] * inv
			A[r][col] = f
			if f == 0 {
				continue
			}
			row := A[r][col+1:]
			row = row[:len(pivRow)]
			for c, v := range pivRow {
				row[c] -= f * v
			}
		}
	}
	ls.lu, ls.piv = A, piv
	return nil
}

// solve solves the system for rhs (indexed like trans, and clobbered),
// writing the solution into the global x. The Gauss–Seidel sweeps start
// from x's current values.
func (ls *levelSystem) solve(rhs, x []float64) error {
	if ls.lu != nil {
		ls.solveDense(rhs)
		for li, id := range ls.trans {
			x[id] = rhs[li]
		}
		return nil
	}
	return ls.gaussSeidel(rhs, x)
}

// solveDense overwrites b with the solution from the LU factors. All row
// swaps go first: the elimination only ever subtracts multiples of
// earlier pivot rows, so each row meets the same operands, in the same
// order, as when the swaps were interleaved with elimination.
func (ls *levelSystem) solveDense(b []float64) {
	A, m := ls.lu, len(ls.lu)
	for col, p := range ls.piv {
		b[col], b[p] = b[p], b[col]
	}
	for col := 0; col < m; col++ {
		bc := b[col]
		for r := col + 1; r < m; r++ {
			if f := A[r][col]; f != 0 {
				b[r] -= f * bc
			}
		}
	}
	for r := m - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < m; c++ {
			sum -= A[r][c] * b[c]
		}
		b[r] = sum / A[r][r]
	}
}

// gaussSeidel is the fallback for levels above denseLevelCap: sweeps in
// local-index order over a local copy of x until the largest update falls
// below lumpedTol relative to the iterate.
func (ls *levelSystem) gaussSeidel(rhs, x []float64) error {
	m := len(ls.trans)
	xl := make([]float64, m)
	for li, id := range ls.trans {
		xl[li] = x[id]
	}
	for iter := 0; iter < lumpedMaxIter; iter++ {
		var maxDelta, maxX float64
		for li := 0; li < m; li++ {
			sum := rhs[li]
			lo, hi := ls.ptr[li], ls.ptr[li+1]
			ps := ls.ps[lo:hi]
			for k, c := range ls.cols[lo:hi] {
				sum += ps[k] * xl[c]
			}
			v := sum / ls.den[li]
			if d := math.Abs(v - xl[li]); d > maxDelta {
				maxDelta = d
			}
			if a := math.Abs(v); a > maxX {
				maxX = a
			}
			xl[li] = v
		}
		if maxDelta < lumpedTol*(1+maxX) {
			for li, id := range ls.trans {
				x[id] = xl[li]
			}
			return nil
		}
	}
	return fmt.Errorf("twin: level with %d nodes did not converge in %d sweeps", m, lumpedMaxIter)
}

// hitting returns the expected number of interactions E from every node
// to the absorb set and, when second is set, the second moments
// M = E[T²] of that hitting time (the system shares the chain's matrix —
// see markov.SecondMoments for the derivation). Levels are processed
// top-down, so each level's system only involves itself and
// already-solved higher levels; each level's system is assembled (and,
// dense, factored) once and solved for E, then for M.
func (ch *lchain) hitting(absorb []bool, second bool) (E, M []float64, err error) {
	E = make([]float64, len(ch.nodes))
	if second {
		M = make([]float64, len(ch.nodes))
	}
	loc := ch.localIndex()
	for li := len(ch.levels) - 1; li >= 0; li-- {
		var trans []int
		for _, i := range ch.levels[li] {
			if !absorb[i] {
				trans = append(trans, i)
			}
		}
		if len(trans) == 0 {
			continue
		}
		sys, err := ch.newLevelSystem(trans, loc, false)
		if err != nil {
			return nil, nil, fmt.Errorf("%w (hitting, level %d)", err, li+ch.cMin)
		}
		rhs := make([]float64, len(trans))
		for r, i := range trans {
			// rhs = 1 + mass flowing to already-solved higher levels.
			sum := 1.0
			lvl := level(ch.nodes[i])
			for _, e := range ch.out[i] {
				if level(ch.nodes[e.To]) > lvl {
					sum += e.P * E[e.To]
				}
			}
			rhs[r] = sum
		}
		if err := sys.solve(rhs, E); err != nil {
			return nil, nil, fmt.Errorf("%w (hitting, level %d)", err, li+ch.cMin)
		}
		if !second {
			continue
		}
		for r, i := range trans {
			sum := 1.0 + 2*ch.self[i]*E[i]
			lvl := level(ch.nodes[i])
			for _, e := range ch.out[i] {
				sum += 2 * e.P * E[e.To]
				if level(ch.nodes[e.To]) > lvl {
					sum += e.P * M[e.To]
				}
			}
			rhs[r] = sum
		}
		if err := sys.solve(rhs, M); err != nil {
			return nil, nil, fmt.Errorf("%w (second moments, level %d)", err, li+ch.cMin)
		}
	}
	return E, M, nil
}

// momentsCached returns the stable-hitting first and second moments,
// solving once and memoizing — cached endgame chains are reused across
// Predict calls (and goroutines), and the solve is the expensive part.
// Only the moments are kept, never a level's factors.
func (ch *lchain) momentsCached() (E, M []float64, err error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.solvedE == nil {
		E, M, err := ch.hitting(ch.stable, true)
		if err != nil {
			return nil, nil, err
		}
		ch.solvedE, ch.solvedM = E, M
	}
	return ch.solvedE, ch.solvedM, nil
}

// hitLevel returns expected interactions until #gk first reaches j. Its
// absorb set differs from the stable set, so its level systems are
// assembled over their own transient nodes.
func (ch *lchain) hitLevel(j int) ([]float64, error) {
	absorb := make([]bool, len(ch.nodes))
	for i, v := range ch.nodes {
		absorb[i] = level(v) >= j
	}
	E, _, err := ch.hitting(absorb, false)
	return E, err
}

// occupancy computes ν[i], the expected number of interactions executed
// while the chain sits at node i, from unit mass at the start node — a
// forward pass, level by level (mass only flows upward). Stable nodes are
// absorbing: mass entering them leaves the accounting.
func (ch *lchain) occupancy() ([]float64, error) {
	if ch.start < 0 {
		return nil, fmt.Errorf("twin: occupancy needs a chain built from the initial configuration")
	}
	nu := make([]float64, len(ch.nodes))
	entry := make([]float64, len(ch.nodes))
	entry[ch.start] = 1
	loc := ch.localIndex()
	for li := 0; li < len(ch.levels); li++ {
		var trans []int
		var rhs []float64
		for _, i := range ch.levels[li] {
			if ch.stable[i] {
				continue
			}
			trans = append(trans, i)
			rhs = append(rhs, entry[i])
		}
		if len(trans) == 0 {
			continue
		}
		// The occupancy system is the hitting system transposed: mass
		// flows along edges instead of expectations flowing against them.
		sys, err := ch.newLevelSystem(trans, loc, true)
		if err == nil {
			err = sys.solve(rhs, nu)
		}
		if err != nil {
			return nil, fmt.Errorf("%w (occupancy, level %d)", err, li+ch.cMin)
		}
		// Push the level's settled mass to higher levels.
		for _, i := range trans {
			lvl := level(ch.nodes[i])
			for _, e := range ch.out[i] {
				if level(ch.nodes[e.To]) > lvl {
					entry[e.To] += e.P * nu[i]
				}
			}
		}
	}
	return nu, nil
}

// milestoneTimes returns the expected interactions until #gk reaches j,
// for j = 1..⌊n/k⌋, via one occupancy pass: milestone j is the total
// expected time spent at levels below j, and levels are left for good.
func (ch *lchain) milestoneTimes() ([]float64, error) {
	nu, err := ch.occupancy()
	if err != nil {
		return nil, err
	}
	q := ch.n / ch.k
	tau := make([]float64, len(ch.levels))
	for li, nodes := range ch.levels {
		for _, i := range nodes {
			tau[li] += nu[i]
		}
	}
	out := make([]float64, q)
	cum := 0.0
	for j := 1; j <= q; j++ {
		cum += tau[j-1]
		out[j-1] = cum
	}
	return out, nil
}

// LumpedFits reports whether the lumped state space of (n, k) fits the
// budget, without building it: an exact saturating count of the reduced
// vectors (a DP over the population identity's weights), short-circuited
// by the Θ(n²/k) lower bound from the (a, b, c)-only states so huge
// populations answer immediately.
func LumpedFits(n, k, budget int) bool {
	if budget <= 0 {
		return false
	}
	// Lower bound: states with m = d = 0 alone number
	// Σ_{c=0}^{⌊n/k⌋} (n − kc + 1) ≥ n²/(2k) for n ≥ k.
	if n >= k && n*(n/k)/2 > budget {
		return false
	}
	return lumpedCount(n, k, budget+1) <= budget
}

// lumpedCount counts reduced vectors for (n, k), saturating at limit: the
// non-negative solutions of the population identity, a DP over its slot
// weights (a and b weigh 1, m_i weighs i, d_i weighs i+1, c weighs k).
func lumpedCount(n, k, limit int) int {
	w := []int{1, 1} // a and b
	for i := 2; i <= k-1; i++ {
		w = append(w, i)
	}
	for i := 1; i <= k-2; i++ {
		w = append(w, i+1)
	}
	w = append(w, k) // c
	return countSolutions(n, w, limit)
}

// countSolutions counts non-negative integer solutions of Σ w_i·x_i = n,
// saturating at limit (the caller only needs "≤ budget or not").
func countSolutions(n int, weights []int, limit int) int {
	dp := make([]int, n+1)
	dp[0] = 1
	for _, w := range weights {
		for s := w; s <= n; s++ {
			dp[s] += dp[s-w]
			if dp[s] > limit {
				dp[s] = limit
			}
		}
	}
	return dp[n]
}

// Lumped is rung 1 of the ladder: exact expectations from the lumped
// chain for every (n, k) whose reduced state space fits its budget.
type Lumped struct {
	budget int
}

// NewLumped returns the exact rung with the given state budget (<= 0
// means DefaultStateBudget).
func NewLumped(budget int) *Lumped {
	if budget <= 0 {
		budget = DefaultStateBudget
	}
	return &Lumped{budget: budget}
}

// Name implements Model.
func (l *Lumped) Name() string { return "lumped" }

// Fidelity implements Model.
func (l *Lumped) Fidelity() Fidelity { return FidelityExact }

// Supports implements Model.
func (l *Lumped) Supports(n, k int) bool { return LumpedFits(n, k, l.budget) }

// Predict implements Model: exact expectation, exact variance, and (on
// request) exact per-milestone times, all from one chain build.
func (l *Lumped) Predict(s Spec) (Prediction, error) {
	if err := checkSpec(s); err != nil {
		return Prediction{}, err
	}
	p, err := core.New(s.K)
	if err != nil {
		return Prediction{}, fmt.Errorf("twin: %v", err)
	}
	ch, err := buildLumped(p, s.N, l.budget)
	if err != nil {
		return Prediction{}, err
	}
	E, M, err := ch.hitting(ch.stable, true)
	if err != nil {
		return Prediction{}, err
	}
	variance := M[ch.start] - E[ch.start]*E[ch.start]
	if variance < 0 {
		variance = 0 // float cancellation on near-deterministic chains
	}
	pr := Prediction{
		N: s.N, K: s.K,
		Model:                l.Name(),
		Fidelity:             l.Fidelity(),
		ExpectedInteractions: E[ch.start],
		StdInteractions:      math.Sqrt(variance),
		RelErrBudget:         RelErrExact,
		States:               len(ch.nodes),
	}
	if s.Milestones {
		ms, err := ch.milestoneTimes()
		if err != nil {
			return Prediction{}, err
		}
		pr.Milestones = ms
	}
	finishPrediction(&pr)
	return pr, nil
}

package fastpath

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/rounding"
	"kwmds/internal/stats"
	"kwmds/internal/testsupport"
)

// churn mutates a graph in serve-churn's shape: each epoch toggles the
// edges of a few vertex pairs drawn from a fixed pool, so the graph wanders
// around its start, and commits through dyngraph, whose snapshots carry
// their lineage.
type churn struct {
	d     *dyngraph.Dynamic
	pairs [][2]int
	rng   *rand.Rand
}

func newChurn(g *graph.Graph, npairs int, seed int64) *churn {
	c := &churn{d: dyngraph.New(g), rng: stats.NewRand(seed)}
	seen := map[[2]int]bool{}
	for len(c.pairs) < npairs {
		u, v := c.rng.IntN(g.N()), c.rng.IntN(g.N())
		if u == v || seen[[2]int{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]int{min(u, v), max(u, v)}] = true
		c.pairs = append(c.pairs, [2]int{u, v})
	}
	return c
}

// next toggles the edges of toggles distinct pool pairs and commits.
func (c *churn) next(tb testing.TB, toggles int) *graph.Graph {
	tb.Helper()
	g := c.d.Graph()
	for _, i := range c.rng.Perm(len(c.pairs))[:toggles] {
		u, v := c.pairs[i][0], c.pairs[i][1]
		var err error
		if g.HasEdge(u, v) {
			err = c.d.RemoveEdge(u, v)
		} else {
			err = c.d.AddEdge(u, v)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	delta, err := c.d.Commit()
	if err != nil {
		tb.Fatal(err)
	}
	return delta.Next
}

// TestReplayMatchesFreshSolver runs serve-churn's shape at the fastpath
// level: 4 toggles per epoch among 32 fixed pairs on a 2 000-vertex UDG of
// serve-churn's mean degree. One persistent solver per (k, workers) solves
// every epoch and must answer bit for bit as a fresh solver, which has no
// state to replay from and runs the full stage. k runs from 1 (one inner
// iteration, no outer boundary) to 9 (81 inner iterations, more than a
// 64-bit per-vertex mask could hold). Epochs rotate through the
// entry points: a plain Solve, which must replay; a standalone Round
// first, which repairs the tables but leaves the LP to the Solve after it,
// which must replay; a Fractional first, which must replay, so the Solve
// after it hits the memo; and a canceled Solve first, which drops the memo
// and the record, so the Solve after it runs the full stage.
func TestReplayMatchesFreshSolver(t *testing.T) {
	const epochs = 24
	g, err := gen.UnitDisk(2000, 0.045, 21)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	close(closed)
	for _, k := range []int{1, 2, 3, 4, 9} {
		for _, workers := range []int{1, 3, 0} {
			t.Run(fmt.Sprintf("k%d/w%d", k, workers), func(t *testing.T) {
				c := newChurn(g, 32, int64(k*10+workers))
				s := New()
				opt := Options{K: k, Seed: 1, Workers: workers}
				if _, err := s.Solve(g, opt); err != nil {
					t.Fatal(err)
				}
				for e := 1; e <= epochs; e++ {
					ge := c.next(t, 4)
					opt.Seed = int64(e)
					want, err := New().Solve(ge, opt)
					if err != nil {
						t.Fatal(err)
					}
					ctx := fmt.Sprintf("epoch %d", e)
					replay := true
					switch e % 4 {
					case 1:
						if _, err := s.Round(ge, want.X, opt); err != nil {
							t.Fatal(err)
						}
					case 2:
						x, err := s.Fractional(ge, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !s.LastLPReplayed() {
							t.Fatalf("%s: Fractional did not replay", ctx)
						}
						sameX(t, ctx, x, want.X)
						replay = false
					case 3:
						canceled := opt
						canceled.Cancel = closed
						if _, err := s.Solve(ge, canceled); !errors.Is(err, ErrCanceled) {
							t.Fatalf("%s: canceled Solve: err = %v, want ErrCanceled", ctx, err)
						}
						replay = false
					}
					got, err := s.Solve(ge, opt)
					if err != nil {
						t.Fatal(err)
					}
					if s.LastLPReplayed() != replay {
						t.Fatalf("%s: replayed = %v, want %v", ctx, s.LastLPReplayed(), replay)
					}
					testsupport.RequireBitIdenticalIn(t, ctx, got, want)
				}
			})
		}
	}
}

// sameRecord fails unless the replayed solver's trajectory equals the one
// a fresh solver's full stage recorded for the same graph: ∆, the white
// counts, and every vertex's gray iteration and events. It builds both
// records' spans first, as a replay would.
func sameRecord(t *testing.T, ctx string, got, want *trajectory) {
	t.Helper()
	got.ready()
	want.ready()
	if got.maxDeg != want.maxDeg || !slices.Equal(got.white, want.white) {
		t.Fatalf("%s: record ∆ %d, white %v; want ∆ %d, white %v", ctx, got.maxDeg, got.white, want.maxDeg, want.white)
	}
	for v := range want.grayAt {
		if got.grayAt[v] != want.grayAt[v] || !slices.Equal(got.events(int32(v)), want.events(int32(v))) {
			t.Fatalf("%s: vertex %d recorded gray at %d with %v; want %d with %v", ctx, v,
				got.grayAt[v], got.events(int32(v)), want.grayAt[v], want.events(int32(v)))
		}
	}
}

// TestReplayMatchesFreshSolverLongChain replays 300 epochs of serve-churn's
// shape on one solver at k = 3. After every epoch the answer must be bit
// for bit a fresh solver's, and so must the rewritten record: the per-
// vertex trajectory the next epoch replays from, after many relocations
// of rewritten spans and several compactions of the arena.
func TestReplayMatchesFreshSolverLongChain(t *testing.T) {
	g, err := gen.UnitDisk(2000, 0.045, 23)
	if err != nil {
		t.Fatal(err)
	}
	c := newChurn(g, 32, 29)
	s := New()
	opt := Options{K: 3, Workers: 1}
	if _, err := s.Solve(g, opt); err != nil {
		t.Fatal(err)
	}
	compactions, arena := 0, len(s.rec.ev)
	for e := 1; e <= 300; e++ {
		ge := c.next(t, 4)
		opt.Seed = int64(e)
		ctx := fmt.Sprintf("epoch %d", e)
		got, err := s.Solve(ge, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !s.LastLPReplayed() {
			t.Fatalf("%s: not replayed", ctx)
		}
		fresh := New()
		want, err := fresh.Solve(ge, opt)
		if err != nil {
			t.Fatal(err)
		}
		testsupport.RequireBitIdenticalIn(t, ctx, got, want)
		sameRecord(t, ctx, &s.rec, &fresh.rec)
		if len(s.rec.ev) < arena {
			compactions++
		}
		arena = len(s.rec.ev)
	}
	if compactions == 0 {
		t.Fatal("300 epochs never compacted the record's arena")
	}
}

// TestReplayMatchesFreshSolverThresholds checks the flip thresholds the
// solver keeps with its LP memo, which the repair and the replay's rewrite
// patch instead of rebuilding. Along 60 epochs of serve-churn's shape on
// one solver, after every epoch's Solve (a replay) its thresholds must
// equal, vertex by vertex, those a fresh solver builds for the same graph
// and variant, and the answer must be the fresh solver's. The variant
// switches every third epoch. Every fourth epoch replays through
// Fractional and rounds through Round over the memo Fractional returned,
// as kwbench's churn mode does, which must keep the thresholds. Every
// fifth epoch a standalone Round over a caller's x comes between the
// replay and a memo-hit Solve, which must not reuse the thresholds Round
// built; every seventh ends on such a Round, so the next epoch's repair
// and replay meet thresholds of the caller's x.
// Some epochs must end their run at an earlier inner iteration than their
// parent's, where the rewrite drops the parent's later raises.
func TestReplayMatchesFreshSolverThresholds(t *testing.T) {
	const epochs = 60
	g, err := gen.UnitDisk(2000, 0.045, 21)
	if err != nil {
		t.Fatal(err)
	}
	variants := [2]rounding.Variant{rounding.Ln, rounding.LnMinusLnLn}
	shortened := 0
	for _, k := range []int{3, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("k%d/w%d", k, workers), func(t *testing.T) {
				c := newChurn(g, 32, int64(10*k+workers))
				s := New()
				opt := Options{K: k, Workers: workers}
				if _, err := s.Solve(g, opt); err != nil {
					t.Fatal(err)
				}
				callerX := make([]float64, g.N())
				for e := 1; e <= epochs; e++ {
					ge := c.next(t, 4)
					opt.Seed, opt.Variant = int64(e), variants[e/3%2]
					ctx := fmt.Sprintf("epoch %d (%v)", e, opt.Variant)
					fresh := New()
					want, err := fresh.Solve(ge, opt)
					if err != nil {
						t.Fatal(err)
					}
					parentEnd := runEnd(s.rec.white)
					var got Result
					if e%4 == 0 {
						x, err := s.Fractional(ge, opt)
						if err != nil {
							t.Fatal(err)
						}
						if got, err = s.Round(ge, x, opt); err != nil {
							t.Fatal(err)
						}
						sameX(t, ctx, x, want.X)
						got.X, got.Objective = want.X, want.Objective
					} else if got, err = s.Solve(ge, opt); err != nil {
						t.Fatal(err)
					}
					if !s.LastLPReplayed() {
						t.Fatalf("%s: not replayed", ctx)
					}
					if runEnd(s.rec.white) < parentEnd {
						shortened++
					}
					testsupport.RequireBitIdenticalIn(t, ctx, got, want)
					sameThresholds(t, ctx, s, fresh, opt.Variant)
					if e%5 != 0 && e%7 != 0 {
						continue
					}
					for v := range callerX {
						callerX[v] = want.X[v] / 3
					}
					got, err = s.Round(ge, callerX, opt)
					if err != nil {
						t.Fatal(err)
					}
					wantRound, err := New().Round(ge, callerX, opt)
					if err != nil {
						t.Fatal(err)
					}
					testsupport.RequireBitIdenticalIn(t, ctx+"/Round over a caller's x", got, wantRound)
					if e%5 != 0 {
						continue
					}
					got, err = s.Solve(ge, opt)
					if err != nil {
						t.Fatal(err)
					}
					testsupport.RequireBitIdenticalIn(t, ctx+"/after Round", got, want)
					sameThresholds(t, ctx+"/after Round", s, fresh, opt.Variant)
				}
			})
		}
	}
	if shortened == 0 {
		t.Fatal("no epoch ended its run earlier than its parent's")
	}
}

// runEnd returns the inner iteration after which a recorded run's white
// set was empty, or the iteration count if it never was.
func runEnd(white []int32) int {
	for t, w := range white {
		if w == 0 {
			return t
		}
	}
	return len(white)
}

// sameThresholds fails unless got keeps flip thresholds for variant that
// equal want's, vertex by vertex.
func sameThresholds(t *testing.T, ctx string, got, want *Solver, variant rounding.Variant) {
	t.Helper()
	if !got.thrOK || got.thrVar != variant {
		t.Fatalf("%s: thresholds kept = %v for %v, want kept for %v", ctx, got.thrOK, got.thrVar, variant)
	}
	for v := range want.n {
		if got.thr[v] != want.thr[v] {
			t.Fatalf("%s: thr[%d] = %d, a fresh solver's is %d (x %v, δ⁽²⁾ %d)", ctx, v,
				got.thr[v], want.thr[v], got.x[v], got.d2[v])
		}
	}
}

// TestReplayMatchesFreshSolverIsolateAndDelta replays epochs that isolate
// a vertex (its last edges removed, so it covers itself alone) and that
// move ∆: the unique ∆ vertex loses edges, and later a low-degree vertex
// gains enough to become the new ∆ vertex. Every epoch must match a fresh
// solver, answer and record, at several k.
func TestReplayMatchesFreshSolverIsolateAndDelta(t *testing.T) {
	g, err := gen.UnitDisk(1500, 0.05, 31)
	if err != nil {
		t.Fatal(err)
	}
	hub, low := 0, 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
		if g.Degree(v) < g.Degree(low) && g.Degree(v) > 0 {
			low = v
		}
	}
	for _, k := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			d := dyngraph.New(g)
			s := New()
			opt := Options{K: k, Workers: 1}
			if _, err := s.Solve(g, opt); err != nil {
				t.Fatal(err)
			}
			step := func(name string, mutate func(cur *graph.Graph) error) {
				t.Helper()
				if err := mutate(d.Graph()); err != nil {
					t.Fatal(err)
				}
				delta, err := d.Commit()
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Solve(delta.Next, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !s.LastLPReplayed() {
					t.Fatalf("%s: not replayed", name)
				}
				fresh := New()
				want, err := fresh.Solve(delta.Next, opt)
				if err != nil {
					t.Fatal(err)
				}
				testsupport.RequireBitIdenticalIn(t, name, got, want)
				sameRecord(t, name, &s.rec, &fresh.rec)
			}
			// Isolate low, one edge at a time: the last removal isolates it.
			for len(d.Graph().Neighbors(low)) > 0 {
				step("isolate", func(cur *graph.Graph) error {
					return d.RemoveEdge(low, int(cur.Neighbors(low)[0]))
				})
			}
			// ∆ drops: the hub loses two edges per epoch, three times.
			for i := 0; i < 3; i++ {
				step("∆ drops", func(cur *graph.Graph) error {
					nb := cur.Neighbors(hub)
					if err := d.RemoveEdge(hub, int(nb[0])); err != nil {
						return err
					}
					return d.RemoveEdge(hub, int(nb[len(nb)-1]))
				})
			}
			// ∆ rises: the isolated vertex gains edges, a few per epoch,
			// until it is the unique ∆ vertex (every other vertex gained
			// at most the one edge to it).
			for v := 0; d.Graph().Degree(low) <= g.MaxDegree()+1; {
				step("∆ rises", func(cur *graph.Graph) error {
					for added := 0; added < 5; v++ {
						if v != low && !cur.HasEdge(low, v) {
							if err := d.AddEdge(low, v); err != nil {
								return err
							}
							added++
						}
					}
					return nil
				})
			}
		})
	}
}

// TestLPLocality checks the constant-time contract the replay rests on:
// after Algorithm 3's 4k²+2k+2 rounds (Theorem 5), x_v is a function of
// v's ball of that radius, so toggling one edge leaves x_v bit-identical
// at every v farther than that from both endpoints. Both graphs are built
// with graph.New, which sets no lineage, so both are full cold solves.
// The 70×70 grid's diameter (138) exceeds twice the k = 3 radius (44), and
// every toggle changes some x, so the check is not vacuous.
//
// Algorithm 2 runs 2k² rounds, but its thresholds read the global ∆: a
// toggle that changes ∆ changes every vertex's thresholds, and with them
// x everywhere. Its arms therefore only remove edges, which keeps the
// grid's ∆ = 4.
func TestLPLocality(t *testing.T) {
	const rows, cols = 70, 70
	base, err := gen.Grid(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	id := func(r, c int) int { return r*cols + c }
	center := id(rows/2, cols/2)
	diagonal := [2]int{center, id(rows/2+1, cols/2+1)} // raises ∆ to 5
	chord := [2]int{center, id(rows/2+3, cols/2+4)}    // raises ∆ to 5
	corner := [2]int{id(0, 0), id(0, 1)}               // removal; ∆ stays 4
	rimCut := [2]int{id(0, cols/2), id(1, cols/2)}     // removal; ∆ stays 4
	toggled := func(e [2]int) *graph.Graph {
		edges := base.Edges()
		kept := edges[:0]
		found := false
		for _, f := range edges {
			if f == e {
				found = true
				continue
			}
			kept = append(kept, f)
		}
		if !found {
			kept = append(kept, e)
		}
		g, err := graph.New(base.N(), kept)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	alg3Radius := func(k int) int { return 4*k*k + 2*k + 2 }
	for _, tc := range []struct {
		alg    Algorithm
		k      int
		toggle [2]int
		radius int
	}{
		{Alg3, 2, diagonal, alg3Radius(2)},
		{Alg3, 2, corner, alg3Radius(2)},
		{Alg3, 3, diagonal, alg3Radius(3)},
		{Alg3, 3, chord, alg3Radius(3)},
		{Alg3, 3, corner, alg3Radius(3)},
		{Alg2, 3, corner, 2 * 3 * 3},
		{Alg2, 4, corner, 2 * 4 * 4},
		{Alg2, 4, rimCut, 2 * 4 * 4},
	} {
		name := fmt.Sprintf("alg%d/k%d/%v", tc.alg, tc.k, tc.toggle)
		g := toggled(tc.toggle)
		if tc.alg == Alg2 && g.MaxDegree() != base.MaxDegree() {
			t.Fatalf("%s: the toggle changed ∆", name)
		}
		opt := Options{K: tc.k, Algorithm: tc.alg}
		x0, err := New().Fractional(base, opt)
		if err != nil {
			t.Fatal(err)
		}
		x1, err := New().Fractional(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		dist := make([]int32, g.N())
		for i := range dist {
			dist[i] = -1
		}
		for _, h := range []*graph.Graph{base, g} {
			for _, end := range tc.toggle {
				for v, d := range h.BFS(end) {
					if d >= 0 && (dist[v] < 0 || d < dist[v]) {
						dist[v] = d
					}
				}
			}
		}
		far, changed := 0, 0
		for v := range x0 {
			if x0[v] != x1[v] {
				changed++
			}
			if int(dist[v]) <= tc.radius {
				continue
			}
			far++
			if x0[v] != x1[v] {
				t.Errorf("%s: x[%d] at distance %d changed %v → %v", name, v, dist[v], x0[v], x1[v])
			}
		}
		if far == 0 || changed == 0 {
			t.Errorf("%s: vacuous (%d vertices beyond radius %d, %d changed)", name, far, tc.radius, changed)
		}
	}
}

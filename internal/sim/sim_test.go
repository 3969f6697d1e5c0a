package sim

import (
	"strings"
	"sync/atomic"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// path4 is 0-1-2-3.
func path4(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
}

func TestBroadcastDelivery(t *testing.T) {
	g := path4(t)
	received := make([][]int, g.N())
	_, err := New(g).Run(func(nd *Node) {
		nd.Broadcast(Uint(nd.ID()))
		for _, m := range nd.Exchange() {
			received[nd.ID()] = append(received[nd.ID()], m.From)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	for v := range want {
		if len(received[v]) != len(want[v]) {
			t.Fatalf("node %d received from %v, want %v", v, received[v], want[v])
		}
		for i := range want[v] {
			if received[v][i] != want[v][i] {
				t.Fatalf("node %d received from %v, want %v (inbox must be sorted)", v, received[v], want[v])
			}
		}
	}
}

func TestSendTargeted(t *testing.T) {
	g := path4(t)
	var got [4]int64
	_, err := New(g).Run(func(nd *Node) {
		if nd.ID() == 1 {
			nd.Send(2, Uint(99))
		}
		for _, m := range nd.Exchange() {
			atomic.AddInt64(&got[nd.ID()], int64(m.Data.(Uint)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 99 || got[0] != 0 || got[1] != 0 || got[3] != 0 {
		t.Errorf("targeted send misdelivered: %v", got)
	}
}

func TestSendToNonNeighborPanicsIntoError(t *testing.T) {
	g := path4(t)
	_, err := New(g).Run(func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(3, Flag{}) // 0 and 3 are not adjacent
		}
		nd.Exchange()
	})
	if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("err = %v, want non-neighbor panic surfaced", err)
	}
}

func TestRoundCounting(t *testing.T) {
	g := path4(t)
	const rounds = 7
	st, err := New(g).Run(func(nd *Node) {
		for r := 0; r < rounds; r++ {
			nd.Broadcast(Flag{})
			nd.Exchange()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != rounds {
		t.Errorf("Rounds = %d, want %d", st.Rounds, rounds)
	}
	// Each round all 4 nodes broadcast: deliveries = 2m = 6 per round.
	if st.Messages != rounds*6 {
		t.Errorf("Messages = %d, want %d", st.Messages, rounds*6)
	}
	if st.Bits != rounds*6 { // Flag is 1 bit
		t.Errorf("Bits = %d, want %d", st.Bits, rounds*6)
	}
	// Node 1 and 2 have degree 2 → 2 msgs/round → 14 total.
	if st.MaxMsgs != rounds*2 {
		t.Errorf("MaxMsgs = %d, want %d", st.MaxMsgs, rounds*2)
	}
}

func TestMessagesSentInSameRoundAreReceivedThatRound(t *testing.T) {
	// Synchronous semantics: what a neighbor sends before its r-th Exchange
	// arrives at my r-th Exchange.
	g := graph.MustNew(2, [][2]int{{0, 1}})
	ok := make([]bool, 2)
	_, err := New(g).Run(func(nd *Node) {
		nd.Broadcast(Uint(10 + nd.ID()))
		msgs := nd.Exchange()
		ok[nd.ID()] = len(msgs) == 1 && msgs[0].Data.(Uint) == Uint(10+1-nd.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok[0] || !ok[1] {
		t.Errorf("same-round delivery broken: %v", ok)
	}
}

func TestEarlyExitNodesStillDeliverFinalMessages(t *testing.T) {
	// Node 0 announces and halts without a final Exchange; node 1 must still
	// receive the announcement, and the barrier must not deadlock.
	g := graph.MustNew(2, [][2]int{{0, 1}})
	var got int64
	_, err := New(g).Run(func(nd *Node) {
		if nd.ID() == 0 {
			nd.Broadcast(Uint(7))
			return // halt immediately
		}
		msgs := nd.Exchange()
		for _, m := range msgs {
			atomic.AddInt64(&got, int64(m.Data.(Uint)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("late node received %d, want 7", got)
	}
}

func TestStaggeredTermination(t *testing.T) {
	// Node v runs v+1 rounds. The engine must keep advancing as the
	// population shrinks.
	g, err := gen.Clique(5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(g).Run(func(nd *Node) {
		for r := 0; r <= nd.ID(); r++ {
			nd.Broadcast(Flag{})
			nd.Exchange()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", st.Rounds)
	}
}

func TestDeterministicRand(t *testing.T) {
	g := path4(t)
	run := func() []uint64 {
		out := make([]uint64, g.N())
		_, err := New(g, WithSeed(42)).Run(func(nd *Node) {
			out[nd.ID()] = nd.Rand().Uint64()
			nd.Exchange()
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d rand differs across identical runs", v)
		}
	}
	// Different nodes get different streams.
	if a[0] == a[1] && a[1] == a[2] {
		t.Error("per-node streams look identical")
	}
}

func TestMaxRoundsAbort(t *testing.T) {
	g := path4(t)
	st, err := New(g, WithMaxRounds(10)).Run(func(nd *Node) {
		for { // livelock
			nd.Exchange()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want round-limit abort", err)
	}
	if st.Rounds < 10 {
		t.Errorf("Rounds = %d before abort", st.Rounds)
	}
}

func TestProgramPanicSurfaces(t *testing.T) {
	g := path4(t)
	_, err := New(g).Run(func(nd *Node) {
		if nd.ID() == 2 {
			panic("boom")
		}
		nd.Exchange()
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("err = %v, want node 2 panic surfaced", err)
	}
}

func TestEmptyGraphRun(t *testing.T) {
	g := graph.MustNew(0, nil)
	st, err := New(g).Run(func(nd *Node) { nd.Exchange() })
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.Messages != 0 {
		t.Errorf("empty graph: %+v", st)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := graph.MustNew(3, nil)
	st, err := New(g).Run(func(nd *Node) {
		nd.Broadcast(Flag{}) // no neighbors: no-op
		msgs := nd.Exchange()
		if len(msgs) != 0 {
			t.Errorf("isolated node received %d messages", len(msgs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 0 || st.Rounds != 1 {
		t.Errorf("isolated run: %+v", st)
	}
}

func TestPayloadBits(t *testing.T) {
	tests := []struct {
		p    Payload
		want int
	}{
		{Flag{}, 1},
		{Bit(true), 1},
		{Bit(false), 1},
		{Uint(0), 1},
		{Uint(1), 1},
		{Uint(2), 2},
		{Uint(255), 8},
		{Uint(256), 9},
		{Float(3.14), 64},
	}
	for _, tc := range tests {
		if got := tc.p.Bits(); got != tc.want {
			t.Errorf("%T(%v).Bits() = %d, want %d", tc.p, tc.p, got, tc.want)
		}
	}
}

func TestBitAccountingUsesPayloadWidth(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	st, err := New(g).Run(func(nd *Node) {
		nd.Broadcast(Uint(255)) // 8 bits each
		nd.Exchange()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bits != 16 {
		t.Errorf("Bits = %d, want 16", st.Bits)
	}
}

func TestDeterministicDeliveryAcrossRuns(t *testing.T) {
	// A randomized gossip program must produce identical traffic counts on
	// identical seeds even though goroutine interleaving varies.
	g, err := gen.GNP(50, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() int64 {
		st, err := New(g, WithSeed(7)).Run(func(nd *Node) {
			for r := 0; r < 5; r++ {
				if nd.Rand().Float64() < 0.5 {
					nd.Broadcast(Uint(uint64(nd.Rand().IntN(1000))))
				}
				nd.Exchange()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Bits
	}
	if a, b := run(), run(); a != b {
		t.Errorf("bit totals differ across identical runs: %d vs %d", a, b)
	}
}

func TestManyNodesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g, err := gen.GNP(2000, 0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(g).Run(func(nd *Node) {
		for r := 0; r < 10; r++ {
			nd.Broadcast(Uint(uint64(r)))
			nd.Exchange()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 10 {
		t.Errorf("Rounds = %d", st.Rounds)
	}
	if st.Messages != int64(10*2*g.M()) {
		t.Errorf("Messages = %d, want %d", st.Messages, 10*2*g.M())
	}
}

// --- round-driven scheduler (step API) tests ---

func TestRunMachineBroadcastDelivery(t *testing.T) {
	g := path4(t)
	received := make([][]int, g.N())
	_, err := New(g).RunMachine(func(nd *Node) StepFunc {
		step := 0
		return func(nd *Node, inbox []Message) bool {
			switch step {
			case 0:
				nd.Broadcast(Uint(nd.ID()))
			case 1:
				for _, m := range inbox {
					received[nd.ID()] = append(received[nd.ID()], m.From)
				}
				return false
			}
			step++
			return true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	for v := range want {
		if len(received[v]) != len(want[v]) {
			t.Fatalf("node %d received from %v, want %v", v, received[v], want[v])
		}
		for i := range want[v] {
			if received[v][i] != want[v][i] {
				t.Fatalf("node %d received from %v, want %v (inbox must be sorted)", v, received[v], want[v])
			}
		}
	}
}

func TestRunMachineStaggeredHalt(t *testing.T) {
	// Node v broadcasts for v+1 rounds, exactly like TestStaggeredTermination
	// but through the step API. The scheduler must keep sweeping the
	// shrinking live set.
	g, err := gen.Clique(5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(g).RunMachine(func(nd *Node) StepFunc {
		r := 0
		return func(nd *Node, inbox []Message) bool {
			if r > nd.ID() {
				return false
			}
			nd.Broadcast(Flag{})
			r++
			return true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", st.Rounds)
	}
}

func TestRunMachineFinalStepMessagesCounted(t *testing.T) {
	// Messages staged in a node's final step (return false) are still
	// counted, matching the closure API's announce-and-halt pattern.
	g := graph.MustNew(2, [][2]int{{0, 1}})
	var got int64
	st, err := New(g).RunMachine(func(nd *Node) StepFunc {
		step := 0
		return func(nd *Node, inbox []Message) bool {
			if nd.ID() == 0 {
				if step == 0 {
					nd.Broadcast(Uint(7))
					step++
					return true
				}
				return false
			}
			switch step {
			case 0:
				step++
				return true
			default:
				for _, m := range inbox {
					got += int64(m.Data.(Uint))
				}
				return false
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("received %d, want 7", got)
	}
	if st.Messages != 1 {
		t.Errorf("Messages = %d, want 1", st.Messages)
	}
}

func TestRunMachinePanicSurfacesLowestNode(t *testing.T) {
	g, err := gen.Clique(6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(g).RunMachine(func(nd *Node) StepFunc {
		return func(nd *Node, inbox []Message) bool {
			if nd.ID() >= 3 {
				panic("boom")
			}
			return true
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "node 3") {
		t.Fatalf("err = %v, want lowest panicking node (3) surfaced", err)
	}
}

func TestRunOnlyOnce(t *testing.T) {
	g := path4(t)
	e := New(g)
	if _, err := e.Run(func(nd *Node) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(func(nd *Node) {}); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

func TestRoundObservableFromProgram(t *testing.T) {
	g := path4(t)
	rounds := make([][]int, g.N())
	_, err := New(g).Run(func(nd *Node) {
		for r := 0; r < 3; r++ {
			rounds[nd.ID()] = append(rounds[nd.ID()], nd.Round())
			nd.Exchange()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, seen := range rounds {
		for r, got := range seen {
			if got != r {
				t.Fatalf("node %d observed Round() = %d before exchange %d, want %d", v, got, r+1, r)
			}
		}
	}
}

func TestMultiSendSameEdgeSameRound(t *testing.T) {
	// Two messages on one directed edge in one round exercise the spill
	// path: both must arrive, in sender order, program order per sender.
	g := graph.MustNew(3, [][2]int{{0, 1}, {1, 2}})
	var got []uint64
	var from []int
	_, err := New(g).Run(func(nd *Node) {
		switch nd.ID() {
		case 0:
			nd.Send(1, Uint(10))
			nd.Send(1, Uint(11))
			nd.Send(1, Uint(12))
		case 2:
			nd.Send(1, Uint(20))
		}
		msgs := nd.Exchange()
		if nd.ID() == 1 {
			for _, m := range msgs {
				got = append(got, uint64(m.Data.(Uint)))
				from = append(from, m.From)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantVals := []uint64{10, 11, 12, 20}
	wantFrom := []int{0, 0, 0, 2}
	if len(got) != len(wantVals) {
		t.Fatalf("delivered %v from %v, want %v from %v", got, from, wantVals, wantFrom)
	}
	for i := range wantVals {
		if got[i] != wantVals[i] || from[i] != wantFrom[i] {
			t.Fatalf("delivered %v from %v, want %v from %v", got, from, wantVals, wantFrom)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The determinism contract: identical seeds produce bit-identical
	// traffic and results for every worker-pool size.
	g, err := gen.GNP(300, 0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (int64, int64, []uint64) {
		out := make([]uint64, g.N())
		st, err := New(g, WithSeed(9), WithWorkers(workers)).Run(func(nd *Node) {
			acc := uint64(0)
			for r := 0; r < 4; r++ {
				if nd.Rand().Float64() < 0.6 {
					nd.Broadcast(Uint(uint64(nd.Rand().IntN(1 << 20))))
				}
				for _, m := range nd.Exchange() {
					acc = acc*31 + uint64(m.Data.(Uint))
				}
			}
			out[nd.ID()] = acc
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Messages, st.Bits, out
	}
	m1, b1, o1 := run(1)
	for _, w := range []int{2, 3, 8} {
		mw, bw, ow := run(w)
		if mw != m1 || bw != b1 {
			t.Fatalf("workers=%d stats (%d msgs, %d bits) differ from workers=1 (%d, %d)", w, mw, bw, m1, b1)
		}
		for v := range o1 {
			if ow[v] != o1[v] {
				t.Fatalf("workers=%d node %d state %d differs from workers=1 %d", w, v, ow[v], o1[v])
			}
		}
	}
}

func TestInboxValidUntilNextExchangeOnly(t *testing.T) {
	// The documented memory model: inbox slices are reused, so the engine
	// must hand each node a fresh view every round with current payloads.
	g := graph.MustNew(2, [][2]int{{0, 1}})
	var seen []uint64
	_, err := New(g).Run(func(nd *Node) {
		for r := 0; r < 3; r++ {
			nd.Broadcast(Uint(uint64(100*nd.ID() + r)))
			msgs := nd.Exchange()
			if nd.ID() == 0 {
				for _, m := range msgs {
					seen = append(seen, uint64(m.Data.(Uint)))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 101, 102}
	if len(seen) != len(want) {
		t.Fatalf("seen %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen %v, want %v", seen, want)
		}
	}
}

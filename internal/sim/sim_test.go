package sim

import (
	"strings"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// path4 is 0-1-2-3.
func path4(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
}

func TestSendTargeted(t *testing.T) {
	g := path4(t)
	var got [4]int64
	_, err := New(g).RunMachine(func(nd *Node) StepFunc {
		sent := false
		return func(nd *Node, inbox []Message) bool {
			if !sent {
				if nd.ID() == 1 {
					nd.Send(2, Uint(99))
				}
				sent = true
				return true
			}
			for _, m := range inbox {
				got[nd.ID()] += int64(m.Data.(Uint))
			}
			return false
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
	_, err := New(g).RunMachine(func(nd *Node) StepFunc {
		return func(nd *Node, inbox []Message) bool {
			if nd.ID() == 0 {
				nd.Send(3, Flag{}) // 0 and 3 are not adjacent
			}
			return false
		}
	})
	if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("err = %v, want non-neighbor panic surfaced", err)
	}
}

func TestRoundCounting(t *testing.T) {
	g := path4(t)
	const rounds = 7
	st, err := New(g).RunMachine(func(nd *Node) StepFunc {
		r := 0
		return func(nd *Node, inbox []Message) bool {
			if r == rounds {
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
	// Synchronous semantics: what a neighbor stages in step r arrives in my
	// step r+1.
	g := graph.MustNew(2, [][2]int{{0, 1}})
	ok := make([]bool, 2)
	_, err := New(g).RunMachine(func(nd *Node) StepFunc {
		sent := false
		return func(nd *Node, inbox []Message) bool {
			if !sent {
				nd.Broadcast(Uint(10 + nd.ID()))
				sent = true
				return true
			}
			ok[nd.ID()] = len(inbox) == 1 && inbox[0].Data.(Uint) == Uint(10+1-nd.ID())
			return false
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok[0] || !ok[1] {
		t.Errorf("same-round delivery broken: %v", ok)
	}
}

func TestDeterministicRand(t *testing.T) {
	g := path4(t)
	run := func() []uint64 {
		out := make([]uint64, g.N())
		_, err := New(g, WithSeed(42)).RunMachine(func(nd *Node) StepFunc {
			return func(nd *Node, inbox []Message) bool {
				out[nd.ID()] = nd.Rand().Uint64()
				return false
			}
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
	st, err := New(g, WithMaxRounds(10)).RunMachine(func(nd *Node) StepFunc {
		return func(nd *Node, inbox []Message) bool { return true } // livelock
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want round-limit abort", err)
	}
	if st.Rounds < 10 {
		t.Errorf("Rounds = %d before abort", st.Rounds)
	}
}

func TestEmptyGraphRun(t *testing.T) {
	g := graph.MustNew(0, nil)
	st, err := New(g).RunMachine(func(nd *Node) StepFunc {
		return func(nd *Node, inbox []Message) bool { return false }
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.Messages != 0 {
		t.Errorf("empty graph: %+v", st)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := graph.MustNew(3, nil)
	st, err := New(g).RunMachine(func(nd *Node) StepFunc {
		sent := false
		return func(nd *Node, inbox []Message) bool {
			if !sent {
				nd.Broadcast(Flag{}) // no neighbors: no-op
				sent = true
				return true
			}
			if len(inbox) != 0 {
				t.Errorf("isolated node received %d messages", len(inbox))
			}
			return false
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
	st, err := New(g).RunMachine(func(nd *Node) StepFunc {
		return func(nd *Node, inbox []Message) bool {
			nd.Broadcast(Uint(255)) // 8 bits each
			return false
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bits != 16 {
		t.Errorf("Bits = %d, want 16", st.Bits)
	}
}

func TestDeterministicDeliveryAcrossRuns(t *testing.T) {
	// A randomized gossip machine must produce identical traffic counts on
	// identical seeds even though worker scheduling varies.
	g, err := gen.GNP(50, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() int64 {
		st, err := New(g, WithSeed(7)).RunMachine(func(nd *Node) StepFunc {
			r := 0
			return func(nd *Node, inbox []Message) bool {
				if r == 5 {
					return false
				}
				if nd.Rand().Float64() < 0.5 {
					nd.Broadcast(Uint(uint64(nd.Rand().IntN(1000))))
				}
				r++
				return true
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
	st, err := New(g).RunMachine(func(nd *Node) StepFunc {
		r := 0
		return func(nd *Node, inbox []Message) bool {
			if r == 10 {
				return false
			}
			nd.Broadcast(Uint(uint64(r)))
			r++
			return true
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
	// Node v broadcasts for v+1 rounds. The scheduler must keep sweeping
	// the shrinking live set.
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
	// delivered and counted: the announce-and-halt pattern.
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
	halt := func(nd *Node) StepFunc {
		return func(nd *Node, inbox []Message) bool { return false }
	}
	if _, err := e.RunMachine(halt); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunMachine(halt); err == nil {
		t.Fatal("second RunMachine succeeded, want error")
	}
}

func TestRoundObservableFromProgram(t *testing.T) {
	g := path4(t)
	rounds := make([][]int, g.N())
	_, err := New(g).RunMachine(func(nd *Node) StepFunc {
		r := 0
		return func(nd *Node, inbox []Message) bool {
			if r == 3 {
				return false
			}
			rounds[nd.ID()] = append(rounds[nd.ID()], nd.Round())
			r++
			return true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, seen := range rounds {
		for r, got := range seen {
			if got != r {
				t.Fatalf("node %d observed Round() = %d in step %d, want %d", v, got, r, r)
			}
		}
	}
}

func TestMultiSendSameEdgeSameRound(t *testing.T) {
	// The model carries one message per edge per round. A second one on the
	// same edge in the same round, by Send or by a Broadcast after a Send,
	// fails the run and names the sender; messages to distinct neighbors or
	// from distinct senders to one receiver are fine.
	g := graph.MustNew(3, [][2]int{{0, 1}, {1, 2}})
	for name, send := range map[string]func(nd *Node){
		"send twice": func(nd *Node) {
			nd.Send(1, Uint(10))
			nd.Send(1, Uint(11))
		},
		"send then broadcast": func(nd *Node) {
			nd.Send(1, Uint(10))
			nd.Broadcast(Uint(11))
		},
	} {
		_, err := New(g).RunMachine(func(nd *Node) StepFunc {
			return func(nd *Node, inbox []Message) bool {
				switch nd.ID() {
				case 0:
					nd.Send(1, Uint(1))
				case 1:
					nd.Send(0, Uint(1))
					nd.Send(2, Uint(1))
				case 2:
					send(nd)
				}
				return false
			}
		})
		if err == nil || !strings.Contains(err.Error(), "node 2") || !strings.Contains(err.Error(), "second message") {
			t.Errorf("%s: err = %v, want node 2's second message to fail the run", name, err)
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
		st, err := New(g, WithSeed(9), WithWorkers(workers)).RunMachine(func(nd *Node) StepFunc {
			acc := uint64(0)
			r := 0
			return func(nd *Node, inbox []Message) bool {
				for _, m := range inbox {
					acc = acc*31 + uint64(m.Data.(Uint))
				}
				if r == 4 {
					out[nd.ID()] = acc
					return false
				}
				if nd.Rand().Float64() < 0.6 {
					nd.Broadcast(Uint(uint64(nd.Rand().IntN(1 << 20))))
				}
				r++
				return true
			}
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
	_, err := New(g).RunMachine(func(nd *Node) StepFunc {
		r := 0
		return func(nd *Node, inbox []Message) bool {
			if nd.ID() == 0 {
				for _, m := range inbox {
					seen = append(seen, uint64(m.Data.(Uint)))
				}
			}
			if r == 3 {
				return false
			}
			nd.Broadcast(Uint(uint64(100*nd.ID() + r)))
			r++
			return true
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

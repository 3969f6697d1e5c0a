package sim

import (
	"runtime"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// BenchmarkLockstepRounds measures the engine's per-round overhead:
// n nodes broadcasting one message for r rounds.
func BenchmarkLockstepRounds(b *testing.B) {
	g, err := gen.GNP(1000, 0.01, 3)
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := runMachine(New(g), rounds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rounds), "rounds/run")
}

// BenchmarkBroadcastThroughput measures raw delivery throughput on a
// denser graph (messages per op reported via the engine stats).
func BenchmarkBroadcastThroughput(b *testing.B) {
	g, err := gen.RandomRegular(500, 16, 5)
	if err != nil {
		b.Fatal(err)
	}
	var msgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := runMachine(New(g), 5)
		if err != nil {
			b.Fatal(err)
		}
		msgs = st.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/run")
}

// benchEngineRounds is the engine-only round-throughput benchmark used for
// the BENCH_sim.json before/after comparison: every node broadcasts one
// Uint per round for a fixed number of rounds, so the measured cost is the
// harness (scheduling, delivery, inbox construction), not algorithm logic.
// It reports messages delivered per second and heap allocations per round.
func benchEngineRounds(b *testing.B, g *graph.Graph, rounds int) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var msgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := runMachine(New(g), rounds)
		if err != nil {
			b.Fatal(err)
		}
		msgs += st.Messages
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(msgs)/elapsed, "msgs/sec")
	}
	totalRounds := float64(b.N * rounds)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/totalRounds, "allocs/round")
	b.ReportMetric(float64(rounds), "rounds/run")
}

// runMachine drives the broadcast workload: every node broadcasts one Uint
// per round for rounds rounds, then halts.
func runMachine(e *Engine, rounds int) (*Stats, error) {
	return e.RunMachine(func(nd *Node) StepFunc {
		r := 0
		return func(nd *Node, inbox []Message) bool {
			if r == rounds {
				return false
			}
			nd.Broadcast(Uint(uint64(r)))
			r++
			return true
		}
	})
}

// BenchmarkEngineStepRoundsUDG10k: 10k-node unit-disk graph (the paper's
// ad-hoc network model), average degree ≈ 12.
func BenchmarkEngineStepRoundsUDG10k(b *testing.B) {
	g, err := gen.UnitDisk(10000, 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineRounds(b, g, 10)
}

// BenchmarkEngineStepRoundsUDG100k: 100k-node unit-disk graph, average
// degree ≈ 13 — the scale the round-driven scheduler targets.
func BenchmarkEngineStepRoundsUDG100k(b *testing.B) {
	g, err := gen.UnitDisk(100000, 0.0065, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineRounds(b, g, 5)
}

// BenchmarkEngineStepRoundsGNP100k: 100k-node sparse G(n,p), average
// degree ≈ 8.
func BenchmarkEngineStepRoundsGNP100k(b *testing.B) {
	g, err := gen.GNP(100000, 8.0/99999.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineRounds(b, g, 5)
}

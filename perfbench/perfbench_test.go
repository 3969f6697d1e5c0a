package main

import (
	"reflect"
	"testing"

	"kwmds"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// small returns a copy of the named workload over a 2000-vertex graph with
// a short schedule, so a test can run it end to end in a second or two.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.n, w.radius, w.warm = 2000, 0.05, 2
	w.rate = 20
	return w
}

// smallJob makes a two-second schedule, so the measured ops run as two
// chunks.
func smallJob(t *testing.T, w workload, seed int64) job {
	t.Helper()
	dir := t.TempDir()
	j, err := writeInputs(w, seed, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	j.DataDir = dir
	return j
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	g, err := gen.UnitDisk(2000, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, b := makeSchedule(w, 7, 1, g), makeSchedule(w, 7, 1, g)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two schedules from seed 7 differ", w.name)
		}
		if c := makeSchedule(w, 8, 1, g); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.name)
		}
		if got, want := a.measured(), int(w.rate); got != want {
			t.Errorf("%s: %d measured ops for one second, want %d", w.name, got, want)
		}
	}
}

// Two runs with one seed issue identical ops (the schedule is all a run
// sends) and must report exactly the same ds_over_lb.
func TestRunsWithOneSeedRepeat(t *testing.T) {
	for _, name := range []string{"serve-cold", "serve-churn"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			j1, j2 := smallJob(t, w, 11), smallJob(t, w, 11)
			if !reflect.DeepEqual(j1.Sched, j2.Sched) || j1.Digest != j2.Digest {
				t.Fatal("inputs from one seed differ")
			}
			run := func(j job) *result {
				res, err := runServe(&j, w, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("%d ops failed their checks: %v", res.Failed, res.Fails)
				}
				return res
			}
			r1, r2 := run(j1), run(j2)
			if r1.DSOverLB != r2.DSOverLB || r1.DSOverLB < 1 {
				t.Errorf("ds_over_lb %v then %v", r1.DSOverLB, r2.DSOverLB)
			}
		})
	}
}

// A traced run must measure every layer its workload calls.
func TestTracedRunReportsItsLayers(t *testing.T) {
	for name, layers := range map[string][]string{
		"serve-cold": {"kwmds.solve_many_ms", "server.batch_size_mean", "server.batch_wait_ms", "fastpath.lp_ms", "graphio.decode_us", "graphio.encode_us",
			"graphio.load_ms", "cli.build_ms"},
		"serve-churn": {"server.mutate_ms", "dyngraph.commit_ms", "graphio.digest_ms", "wal.append_ms", "wal.sync_ms", "wal.fsyncs_per_mutate", "wal.open_ms",
			"kwmds.solve_many_ms", "kwmds.alloc_mb_per_op", "fastpath.lp_ms", "fastpath.round_ms", "fastpath.cpu_per_wall",
			"server.handler_us", "server.transport_us", "server.allocs_per_op", "server.cache_hit_ratio", "graphio.decode_us", "graphio.encode_us"},
	} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			j := smallJob(t, w, 3)
			res, err := runServe(&j, w, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d ops failed their checks: %v", res.Failed, res.Fails)
			}
			for name, st := range serverLayers(res) {
				res.Layers[name] = st
			}
			for _, m := range layers {
				if st := res.Layers[m]; st.Count == 0 || st.Value <= 0 {
					t.Errorf("%s = %+v, want a measured value", m, st)
				}
			}
		})
	}
}

// The checks must catch a single wrong size among correct ones, and an
// in-process set that is not a dominating set or misreports its size.
func TestCheckCatchesOneWrongSize(t *testing.T) {
	g, err := gen.UnitDisk(2000, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	keys := []solveKey{{K: 3, Seed: 1}, {K: 3, Seed: 2}, {K: 3, Seed: 3}}
	want := expectedAnswers(g, keys)
	replies := make([]reply, len(keys))
	for i, w := range want {
		if w.err != nil {
			t.Fatal(w.err)
		}
		replies[i].size = int32(w.size)
	}
	lb := kwmds.DualLowerBound(g)
	check := func(want []answer) *failures {
		f := &failures{}
		checkSizes(replies, want, func(int) float64 { return lb }, f)
		return f
	}
	if f := check(want); f.n != 0 {
		t.Fatalf("correct replies failed: %v", f.reasons)
	}
	replies[2].size++
	if f := check(want); f.n != 1 {
		t.Fatalf("one wrong size gave %d failures (%v), want 1", f.n, f.reasons)
	}
	replies[2].size--

	res, err := kwmds.DominatingSet(g, facadeOpts(keys[1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSet(g, res.InDS, res.Size); err != nil {
		t.Fatalf("the facade's own set: %v", err)
	}
	// Drop a member that some vertex needs: the size is reported right,
	// but that vertex is left undominated.
	inDS := dropNeededMember(g, res.InDS)
	if inDS == nil {
		t.Fatal("every member of the set can be dropped")
	}
	if err := checkSet(g, inDS, res.Size-1); err == nil {
		t.Fatal("a set that leaves a vertex undominated passed")
	}
	if err := checkSet(g, res.InDS, res.Size-1); err == nil {
		t.Fatal("a set with a misreported size passed")
	}
	bad := append([]answer(nil), want...)
	bad[1].err = checkSet(g, inDS, res.Size-1)
	if f := check(bad); f.n != 1 {
		t.Fatalf("a non-dominating in-process set gave %d failures (%v), want 1", f.n, f.reasons)
	}
}

// dropNeededMember returns a copy of inDS without the first member whose removal
// leaves a vertex undominated, or nil.
func dropNeededMember(g *graph.Graph, inDS []bool) []bool {
	out := append([]bool(nil), inDS...)
	for v, in := range inDS {
		if !in {
			continue
		}
		out[v] = false
		if !g.IsDominatingSet(out) {
			return out
		}
		out[v] = true
	}
	return nil
}

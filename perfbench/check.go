package main

import (
	"fmt"
	"sync"

	"kwmds"
	"kwmds/internal/dyngraph"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// reply is what the benchmark keeps of one measured op for the checks
// after the measured phase. Transport errors, non-200 answers, replies
// whose digest, epoch or cache flag are wrong for the workload, and a
// cached re-solve that differs from the solve are caught while the op
// runs, outside its timer, and mark it bad.
type reply struct {
	size int32
	bad  bool
}

// churnReply keeps what serve-churn's checks compare against the mirror.
type churnReply struct {
	mutEpoch, solEpoch   int64
	mutDigest, solDigest string
	durable, cached      bool
}

// failures collects failed ops: the count, and the first few reasons.
type failures struct {
	mu      sync.Mutex
	n       int
	reasons []string
}

func (f *failures) add(op int, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
	}
}

func facadeOpts(k solveKey) kwmds.Options {
	return kwmds.Options{K: k.K, Seed: k.Seed, Sequential: true, SolverWorkers: 1}
}

// answer is the in-process solve of one (graph, k, seed): the size of its
// set, or why there is no valid set to compare a served size with.
type answer struct {
	size int
	err  error
}

// solveChecked solves key on g in-process with kwmds.DominatingSet and
// checks the set it gives: it must dominate g and hold Size members. The
// served answers carry only the size, so this is what proves that the sizes
// they are compared with, and their ds_over_lb, belong to dominating sets.
func solveChecked(g *graph.Graph, key solveKey) answer {
	res, err := kwmds.DominatingSet(g, facadeOpts(key))
	if err != nil {
		return answer{err: err}
	}
	return answer{size: res.Size, err: checkSet(g, res.InDS, res.Size)}
}

// checkSet returns why inDS is not a dominating set of g with size members,
// or nil.
func checkSet(g *graph.Graph, inDS []bool, size int) error {
	if len(inDS) != g.N() {
		return fmt.Errorf("set covers %d vertices, the graph has %d", len(inDS), g.N())
	}
	members := 0
	for _, in := range inDS {
		if in {
			members++
		}
	}
	if members != size {
		return fmt.Errorf("set reports size %d but holds %d members", size, members)
	}
	if un := g.Uncovered(inDS); len(un) > 0 {
		return fmt.Errorf("set of size %d leaves %d vertices undominated, first %d", size, len(un), un[0])
	}
	return nil
}

// expectedAnswers solves each key in-process, two at a time.
func expectedAnswers(g *graph.Graph, keys []solveKey) []answer {
	want := make([]answer, len(keys))
	parallel(len(keys), func(i int) { want[i] = solveChecked(g, keys[i]) })
	return want
}

// parallel runs f(0..n-1) on two goroutines.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// checkSizes fails every good reply whose in-process answer want[i] is not
// a valid set or has another size, and returns the mean of size / lb(i)
// over the replies that pass. i is the measured op index.
func checkSizes(replies []reply, want []answer, lb func(i int) float64, f *failures) float64 {
	var ratio ratio
	for i, r := range replies {
		if r.bad {
			continue
		}
		switch w := want[i]; {
		case w.err != nil:
			f.add(i, "in-process kwmds.DominatingSet: %v", w.err)
		case int(r.size) != w.size:
			f.add(i, "served size %d, in-process kwmds.DominatingSet gives %d", r.size, w.size)
		default:
			ratio.add(float64(r.size) / lb(i))
		}
	}
	return ratio.mean()
}

// ratio accumulates the |DS| / lower-bound ratios of the ops that passed.
type ratio struct {
	sum float64
	n   int
}

func (r *ratio) add(x float64) { r.sum, r.n = r.sum+x, r.n+1 }

func (r *ratio) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// checkChurn replays serve-churn's mutations on a mirror dyngraph from the
// base graph and checks every measured op against it: the mutate reply's
// epoch, digest and durability, then the solve reply's epoch, digest, cache
// flag and size. It returns the mean of size / DualLowerBound of the graph
// each op solved, over the good ops.
func checkChurn(base *graph.Graph, s *schedule, replies []reply, churn []churnReply, f *failures) (float64, error) {
	type task struct {
		g   *graph.Graph
		key solveKey
		i   int
	}
	mirror := dyngraph.New(base)
	tasks := make(chan task, 2) // one waiting task per worker
	want := make([]answer, len(replies))
	lbs := make([]float64, len(replies))
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				want[t.i], lbs[t.i] = solveChecked(t.g, t.key), kwmds.DualLowerBound(t.g)
			}
		}()
	}
	var replayErr error
	for op := range s.Keys {
		if err := applyMutations(mirror, s.Muts[op]); err != nil {
			replayErr = fmt.Errorf("mirror replay, op %d: %w", op, err)
			break
		}
		delta, err := mirror.Commit()
		if err != nil {
			replayErr = fmt.Errorf("mirror replay, op %d: %w", op, err)
			break
		}
		i := op - s.Warm
		if i < 0 || replies[i].bad {
			continue
		}
		digest, c := graphio.Digest(delta.Next), churn[i]
		switch {
		case c.mutEpoch != delta.Epoch || c.mutDigest != digest:
			f.add(i, "mutate answered epoch %d digest %.12s, mirror has epoch %d digest %.12s", c.mutEpoch, c.mutDigest, delta.Epoch, digest)
			replies[i].bad = true
		case !c.durable:
			f.add(i, "mutate of a WAL-backed graph answered durable=false")
			replies[i].bad = true
		case c.solEpoch != delta.Epoch || c.solDigest != digest:
			f.add(i, "solve answered epoch %d digest %.12s, mirror has epoch %d digest %.12s", c.solEpoch, c.solDigest, delta.Epoch, digest)
			replies[i].bad = true
		case c.cached:
			f.add(i, "solve after a mutate answered cached=true")
			replies[i].bad = true
		default:
			tasks <- task{g: delta.Next, key: s.Keys[op], i: i}
		}
	}
	close(tasks)
	wg.Wait()
	if replayErr != nil {
		return 0, replayErr
	}
	return checkSizes(replies, want, func(i int) float64 { return lbs[i] }, f), nil
}

// applyMutations stages one mutate batch on d, as the server does.
func applyMutations(d *dyngraph.Dynamic, muts []graphio.Mutation) error {
	for _, m := range muts {
		var err error
		switch m.Op {
		case graphio.OpAddEdge:
			err = d.AddEdge(m.U, m.V)
		case graphio.OpRemoveEdge:
			err = d.RemoveEdge(m.U, m.V)
		default:
			err = fmt.Errorf("unexpected mutation %q", m.Op)
		}
		if err != nil {
			d.Discard()
			return err
		}
	}
	return nil
}

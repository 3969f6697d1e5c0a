package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// fuzzBase is the fixed graph every fuzz replay starts from; the fuzzer
// mutates log bodies, not the base.
func fuzzBase() (*graph.Graph, [digestBytes]byte) {
	g := line(8)
	return g, graphio.DigestRaw(g)
}

// validFuzzBody builds a correct log body of `epochs` records over the
// fuzz base — seeds that let the fuzzer start from deep inside the happy
// path instead of spending its budget rediscovering the frame format.
func validFuzzBody(epochs int) []byte {
	g, pre := fuzzBase()
	d := dyngraph.NewAt(g, 0, nil)
	var body []byte
	for e := 1; e <= epochs; e++ {
		if err := d.AddEdge(0, e+1); err != nil {
			panic(err)
		}
		if e%2 == 0 {
			if err := d.SetWeight(e, 1+float64(e)); err != nil {
				panic(err)
			}
		}
		rec := &Record{Pre: pre}
		rec.Adds, rec.Rems, rec.Weights, rec.Grew = d.NormalizedPending()
		delta, err := d.Commit()
		if err != nil {
			panic(err)
		}
		post := pre
		if delta.Next != delta.Prev {
			post = graphio.DigestRaw(delta.Next)
		}
		rec.Epoch, rec.Post = delta.Epoch, post
		body = rec.appendFrame(body)
		pre = post
	}
	return body
}

// FuzzWALReplay drives replayRecords with arbitrary log bodies. The
// invariants: never panic, never allocate absurdly off a corrupted length,
// fail only with the typed error classes, report torn tails only within
// the input's bounds, and accept under strict only inputs that are exact
// frame sequences (no torn tail).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(validFuzzBody(1), true)
	f.Add(validFuzzBody(3), false)
	corrupt := validFuzzBody(2)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt, false)
	f.Add(validFuzzBody(2)[:11], false)
	f.Fuzz(func(t *testing.T, data []byte, strict bool) {
		g, _ := fuzzBase()
		d := dyngraph.NewAt(g, 0, nil)
		tree := graphio.NewDigestTree(g)
		replayed, torn, err := replayRecords(data, d, tree, strict)
		if err != nil {
			for _, typed := range []error{ErrCorruptRecord, ErrEpochOrder, ErrDigestMismatch, ErrTornTail, ErrRecordTooLarge} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped replay error: %v", err)
		}
		if replayed < 0 || torn < 0 || torn > int64(len(data)) {
			t.Fatalf("nonsense accounting: replayed=%d torn=%d len=%d", replayed, torn, len(data))
		}
		if strict && torn != 0 {
			t.Fatalf("strict replay accepted a torn tail of %d bytes", torn)
		}
		if d.Epoch() != replayed {
			t.Fatalf("engine at epoch %d after %d replayed records", d.Epoch(), replayed)
		}
		if tree.Root() != graphio.DigestRaw(d.Graph()) {
			t.Fatal("replay's digest tree disagrees with a fresh digest of the replayed graph")
		}
	})
}

// TestRegenWALReplayCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzWALReplay. Run with KWMDS_REGEN_WAL_CORPUS=1 after a
// format change; the committed corpus keeps CI's -fuzztime smoke anchored
// on structurally meaningful inputs.
func TestRegenWALReplayCorpus(t *testing.T) {
	if os.Getenv("KWMDS_REGEN_WAL_CORPUS") == "" {
		t.Skip("set KWMDS_REGEN_WAL_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string]struct {
		data   []byte
		strict bool
	}{
		"valid-2-records":   {validFuzzBody(2), true},
		"valid-4-records":   {validFuzzBody(4), false},
		"torn-prefix":       {validFuzzBody(3)[:19], false},
		"flipped-crc":       {flip(validFuzzBody(2), 5), false},
		"flipped-epoch":     {flip(validFuzzBody(2), framePrefixBytes+1), true},
		"giant-length-lie":  {flip(validFuzzBody(1), 3), false},
		"duplicated-record": {append(validFuzzBody(1), validFuzzBody(1)...), true},
	}
	for name, s := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nbool(%v)\n", strconv.Quote(string(s.data)), s.strict)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func flip(b []byte, i int) []byte {
	b[i%len(b)] ^= 0x80
	return b
}

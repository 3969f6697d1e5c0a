package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"kwmds/internal/dyngraph"
	"kwmds/internal/gen"
	"kwmds/internal/graph"
)

// refDigest recomputes the topology digest straight from its definition,
// encoding every integer explicitly: the specification the tree, the
// verifying reader and the incremental update must all match bit for bit.
func refDigest(g *graph.Graph) [sha256.Size]byte {
	n := g.N()
	root := binary.LittleEndian.AppendUint64([]byte{0x01}, uint64(n))
	for lo := 0; lo < n; lo += 64 {
		hi := min(lo+64, n)
		leaf := []byte{0x00}
		for v := lo; v < hi; v++ {
			leaf = binary.LittleEndian.AppendUint32(leaf, uint32(g.Degree(v)))
		}
		for v := lo; v < hi; v++ {
			for _, u := range g.Neighbors(v) {
				leaf = binary.LittleEndian.AppendUint32(leaf, uint32(u))
			}
		}
		sum := sha256.Sum256(leaf)
		root = append(root, sum[:]...)
	}
	return sha256.Sum256(root)
}

// digestTreeSizes straddle the 64-vertex block boundary and reach a few
// dozen blocks.
var digestTreeSizes = []int{0, 1, 63, 64, 65, 500, 3000}

// digestBase is a sparse random graph on n vertices (about 4 neighbours
// each), with isolated vertices and so empty leaf spans at every size.
func digestBase(t testing.TB, n int, seed int64) *graph.Graph {
	if n < 2 {
		return graph.MustNew(n, nil)
	}
	g, err := gen.GNP(n, min(1, 4/float64(n)), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func digestShapes(t *testing.T) map[string]*graph.Graph {
	shapes := map[string]*graph.Graph{}
	for _, n := range digestTreeSizes {
		shapes[fmt.Sprintf("gnp-%d", n)] = digestBase(t, n, int64(n)+1)
	}
	path, err := gen.Path(65)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(200)
	if err != nil {
		t.Fatal(err)
	}
	shapes["path-65"], shapes["star-200"] = path, star
	// Every edge in block 0, then two blocks with empty spans.
	var clique [][2]int
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			clique = append(clique, [2]int{u, v})
		}
	}
	shapes["clique-10-of-130"] = graph.MustNew(130, clique)
	return shapes
}

// TestDigestDefinition pins every digest path to the definition: the full
// build (DigestRaw, Digest), the writer's embedded digest, and the
// verifying reader's recompute over the parsed arrays.
func TestDigestDefinition(t *testing.T) {
	for name, g := range digestShapes(t) {
		want := refDigest(g)
		if got := DigestRaw(g); got != want {
			t.Fatalf("%s: DigestRaw %x, definition %x", name, got, want)
		}
		if got := Digest(g); got != fmt.Sprintf("%x", want) {
			t.Fatalf("%s: Digest %s, definition %x", name, got, want)
		}
		var buf bytes.Buffer
		if err := WriteBinaryCSR(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		if got := [sha256.Size]byte(buf.Bytes()[32:64]); got != want {
			t.Fatalf("%s: container embeds %x, definition %x", name, got, want)
		}
		back, _, err := ReadBinaryCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: verifying read: %v", name, err)
		}
		if DigestRaw(back) != want {
			t.Fatalf("%s: round trip changed the digest", name)
		}
	}
}

// TestDigestEncodePath runs the digest through the path big-endian hosts
// take, encoding the adjacency instead of viewing it in place.
func TestDigestEncodePath(t *testing.T) {
	saved := hostLittleEndian
	hostLittleEndian = false
	t.Cleanup(func() { hostLittleEndian = saved })
	for name, g := range digestShapes(t) {
		if got, want := DigestRaw(g), refDigest(g); got != want {
			t.Fatalf("%s: encoded digest %x, definition %x", name, got, want)
		}
	}
}

// churnDigest drives a dyngraph engine over base through one epoch per
// script byte and checks, at every commit, that DigestTree.Update on the
// commit's Touched vertices equals a from-scratch digest of the new graph.
// The low two bits of a byte pick the epoch:
//
//	0  toggle one to four random edges
//	1  remove every edge of one block, down to its last, emptying its span
//	2  add 1–70 vertices (crossing block boundaries), some with an edge
//	3  a weight-only update, which leaves the topology and the tree alone
func churnDigest(t *testing.T, base *graph.Graph, seed uint64, script []byte) {
	t.Helper()
	d := dyngraph.New(base)
	tree := NewDigestTree(base)
	if tree.Root() != DigestRaw(base) {
		t.Fatal("fresh tree disagrees with DigestRaw")
	}
	rng := rand.New(rand.NewPCG(seed, 7))
	for epoch, op := range script {
		g := d.Graph()
		n := g.N()
		switch op % 4 {
		case 0:
			for k := 1 + rng.IntN(4); k > 0 && n >= 2; k-- {
				u, v := rng.IntN(n), rng.IntN(n)
				if u == v {
					continue
				}
				if d.AddEdge(u, v) != nil {
					if err := d.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 1:
			if n == 0 {
				break
			}
			lo := rng.IntN((n+63)/64) * 64
			for v := lo; v < min(lo+64, n); v++ {
				for _, u := range g.Neighbors(v) {
					if int(u) >= lo && int(u) < v {
						continue // removed from the other end already
					}
					if err := d.RemoveEdge(v, int(u)); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 2:
			for k := 1 + rng.IntN(70); k > 0; k-- {
				v := d.AddVertex()
				if v > 0 && rng.IntN(2) == 0 {
					if err := d.AddEdge(v, rng.IntN(v)); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 3:
			if n > 0 {
				if err := d.SetWeight(rng.IntN(n), 1+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		delta, err := d.Commit()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		got := tree.Root()
		if delta.Next != delta.Prev {
			got = tree.Update(delta.Next, delta.Touched)
		}
		if want := DigestRaw(delta.Next); got != want {
			t.Fatalf("epoch %d (op %d, n %d → %d, %d touched): incremental root %x, fresh %x",
				epoch, op%4, n, delta.Next.N(), len(delta.Touched), got, want)
		}
	}
}

// TestDigestTreeUpdate is the differential oracle for the incremental
// root: seeded scripts of toggles, block-emptying removals, vertex
// additions across block boundaries and weight-only epochs, at every size.
func TestDigestTreeUpdate(t *testing.T) {
	for _, n := range digestTreeSizes {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(n)))
				script := make([]byte, 48)
				for i := range script {
					script[i] = byte(rng.IntN(256))
				}
				churnDigest(t, digestBase(t, n, int64(seed)), seed, script)
			})
		}
	}
}

// FuzzDigestTree: any epoch script over any of the sizes must keep the
// incremental root equal to the from-scratch digest.
func FuzzDigestTree(f *testing.F) {
	f.Add(uint8(2), uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint8(4), uint64(2), []byte{2, 2, 2, 1, 0, 0})
	f.Add(uint8(6), uint64(3), []byte{1, 1, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, size uint8, seed uint64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		n := digestTreeSizes[int(size)%len(digestTreeSizes)]
		churnDigest(t, digestBase(t, n, int64(seed%1024)), seed, script)
	})
}

// BenchmarkDigestRaw times a full digest of serve-churn's graph (udg-10k,
// radius 0.02, seed 1).
func BenchmarkDigestRaw(b *testing.B) {
	g, err := gen.UnitDisk(10_000, 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	off, adj := g.CSR()
	b.SetBytes(int64(4 * (len(off) + len(adj))))
	for b.Loop() {
		DigestRaw(g)
	}
}

// BenchmarkDigestTreeUpdate times the serve-churn mutate's digest: four
// edge toggles, so eight touched vertices, on udg-10k.
func BenchmarkDigestTreeUpdate(b *testing.B) {
	g0, err := gen.UnitDisk(10_000, 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := dyngraph.New(g0)
	rng := rand.New(rand.NewPCG(1, 1))
	for k := 0; k < 4; {
		u, v := rng.IntN(g0.N()), rng.IntN(g0.N())
		if u != v && !g0.HasEdge(u, v) && d.AddEdge(u, v) == nil {
			k++
		}
	}
	delta, err := d.Commit()
	if err != nil {
		b.Fatal(err)
	}
	g1, touched := delta.Next, append([]int32(nil), delta.Touched...)
	tree := NewDigestTree(g0)
	next := []*graph.Graph{g1, g0}
	i := 0
	for b.Loop() {
		tree.Update(next[i&1], touched)
		i++
	}
}

package baseline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/sim"
)

// setDigest is the hex SHA-256 of a vertex set, one byte (0 or 1) per
// vertex.
func setDigest(in []bool) string {
	buf := make([]byte, len(in))
	for v, b := range in {
		if b {
			buf[v] = 1
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func resultLine(r *Result) string {
	return fmt.Sprintf("size=%d rounds=%d msgs=%d bits=%d ds=%s",
		r.Size, r.Rounds, r.Messages, r.Bits, setDigest(r.InDS))
}

// TestDistributedBaselinesPinned pins the simulated baselines' sets and
// measured costs at engine worker counts 1, 3 and 8: a change to an
// algorithm's round schedule, message pattern or randomness shows up here
// as a changed constant, and a scheduling dependence as a worker count that
// disagrees with the others.
func TestDistributedBaselinesPinned(t *testing.T) {
	type namedGraph struct {
		name string
		g    *graph.Graph
	}
	var graphs []namedGraph
	for _, spec := range []string{"udg:600:0.08:42", "ba:2000:3:4", "grid:45:45"} {
		g, err := gen.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, namedGraph{spec, g})
	}
	for _, n := range []int{0, 1, 5} {
		graphs = append(graphs, namedGraph{fmt.Sprintf("edgeless:%d", n), graph.MustNew(n, nil)})
	}
	check := func(key, got string) {
		t.Helper()
		want, ok := pinnedBaselines[key]
		if !ok {
			t.Errorf("no pin for %q; got %q", key, got)
		} else if got != want {
			t.Errorf("%s:\n got %s\nwant %s", key, got, want)
		}
	}
	for _, ng := range graphs {
		for _, workers := range []int{1, 3, 8} {
			w := sim.WithWorkers(workers)
			for seed := int64(1); seed <= 4; seed++ {
				key := fmt.Sprintf("jrs %s seed=%d", ng.name, seed)
				res, err := JRS(ng.g, seed, w)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				check(key, resultLine(res))

				key = fmt.Sprintf("luby %s seed=%d", ng.name, seed)
				res, err = LubyMIS(ng.g, seed, w)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				check(key, resultLine(res))
			}
			key := "wuli " + ng.name
			wl, err := WuLi(ng.g, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", key, workers, err)
			}
			check(key, fmt.Sprintf("%s marked=%s fallback=%d",
				resultLine(&wl.Result), setDigest(wl.Marked), wl.FallbackJoins))
		}
	}
}

// pinnedBaselines was recorded on the baselines' former goroutine-per-node
// driver, an implementation independent of the step machines. Re-record it
// only for an intended change to an algorithm or to the engine's accounting.
var pinnedBaselines = map[string]string{
	"jrs ba:2000:3:4 seed=1":      "size=301 rounds=72 msgs=291068 bits=745143 ds=bbf742db614fc9c7755a541e75c3241d190d33b6d380a796a74beaf84fd18056",
	"jrs ba:2000:3:4 seed=2":      "size=307 rounds=72 msgs=289379 bits=741695 ds=0ce62d1b206c786d815583c1d63716579ef9fc952313936e72695f0c3574935c",
	"jrs ba:2000:3:4 seed=3":      "size=304 rounds=66 msgs=287102 bits=740089 ds=96a3ced0094457f2abf813722f240769ed7ddca3981a42e4519a4bd86319ece7",
	"jrs ba:2000:3:4 seed=4":      "size=290 rounds=60 msgs=286275 bits=738394 ds=ed8ea0ed7fc69362812cd4616d8f2d294f22672fc6f46b4cc6435df49f587e74",
	"jrs edgeless:0 seed=1":       "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"jrs edgeless:0 seed=2":       "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"jrs edgeless:0 seed=3":       "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"jrs edgeless:0 seed=4":       "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"jrs edgeless:1 seed=1":       "size=1 rounds=6 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"jrs edgeless:1 seed=2":       "size=1 rounds=6 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"jrs edgeless:1 seed=3":       "size=1 rounds=6 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"jrs edgeless:1 seed=4":       "size=1 rounds=6 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"jrs edgeless:5 seed=1":       "size=5 rounds=6 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"jrs edgeless:5 seed=2":       "size=5 rounds=6 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"jrs edgeless:5 seed=3":       "size=5 rounds=6 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"jrs edgeless:5 seed=4":       "size=5 rounds=6 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"jrs grid:45:45 seed=1":       "size=715 rounds=42 msgs=91864 bits=182089 ds=83dc9736169ef7585742b71dcaa123c9620e99afb934439592960453f151fd8c",
	"jrs grid:45:45 seed=2":       "size=693 rounds=48 msgs=92929 bits=186087 ds=423242c46eea222126536411df1f918d3c7f77aa1581218160958e157b109b4a",
	"jrs grid:45:45 seed=3":       "size=705 rounds=42 msgs=86341 bits=172497 ds=74b4d6382999884f976b2ee6f3821147872f528501e90718c0c120a8e7833ffb",
	"jrs grid:45:45 seed=4":       "size=717 rounds=54 msgs=89068 bits=177286 ds=a355317370ce2b18866d580a523154c23eae8333f693cdd49b656c3704bbab20",
	"jrs udg:600:0.08:42 seed=1":  "size=100 rounds=36 msgs=87748 bits=228129 ds=da46568f093d853823bddc950fc8b74ff584bf11f51ac09d233d8c78c7a85c7c",
	"jrs udg:600:0.08:42 seed=2":  "size=100 rounds=36 msgs=92305 bits=230745 ds=0085b8314975de8c0d51d49075aa9a0c669b5504feb1afb7731acbd877fa0e74",
	"jrs udg:600:0.08:42 seed=3":  "size=96 rounds=54 msgs=102373 bits=266484 ds=54de53c5a76b7e85150e464380b3d52630aca2495ff8afee7f650d1deb7b4c1c",
	"jrs udg:600:0.08:42 seed=4":  "size=100 rounds=54 msgs=101435 bits=264353 ds=728a8bc1dd2536d863cab031db33c17e3fa81bb1c1827fe33cf81b83a99d0186",
	"luby ba:2000:3:4 seed=1":     "size=893 rounds=12 msgs=30898 bits=976164 ds=c01d57399b70093b4637043da406deb350a1d9f6920b3f0ee0a70ef59de3e8be",
	"luby ba:2000:3:4 seed=2":     "size=858 rounds=9 msgs=30330 bits=939993 ds=7932d2e967262954abf9a6493582645fe9c9ef6af23234ecd54d4397a01a1aa4",
	"luby ba:2000:3:4 seed=3":     "size=874 rounds=12 msgs=30207 bits=934737 ds=e45d1b50ac2ddf4972d2eba0e2b337b6757b01b1c3cf974cbdd055e62bce2489",
	"luby ba:2000:3:4 seed=4":     "size=862 rounds=12 msgs=30757 bits=970594 ds=a2855b7ec5a9e48f17007123e3187047c61a9386fe9305c880f720540510aa05",
	"luby edgeless:0 seed=1":      "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"luby edgeless:0 seed=2":      "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"luby edgeless:0 seed=3":      "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"luby edgeless:0 seed=4":      "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"luby edgeless:1 seed=1":      "size=1 rounds=3 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"luby edgeless:1 seed=2":      "size=1 rounds=3 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"luby edgeless:1 seed=3":      "size=1 rounds=3 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"luby edgeless:1 seed=4":      "size=1 rounds=3 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
	"luby edgeless:5 seed=1":      "size=5 rounds=3 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"luby edgeless:5 seed=2":      "size=5 rounds=3 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"luby edgeless:5 seed=3":      "size=5 rounds=3 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"luby edgeless:5 seed=4":      "size=5 rounds=3 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
	"luby grid:45:45 seed=1":      "size=735 rounds=12 msgs=20910 bits=638856 ds=5188f2e52962e9f56aeabf3c026422cbf7c3dee0b95b29ecea69c44a13450013",
	"luby grid:45:45 seed=2":      "size=727 rounds=9 msgs=20606 bits=621253 ds=4daf9c41fa1ff70b71541d60d888d2b8b0cf819ba2998464dcbaee52e6ca63bd",
	"luby grid:45:45 seed=3":      "size=729 rounds=9 msgs=20652 bits=623638 ds=a428e6deb73c3c2cd2fb612d801d996386416215f56cf5df1f9b71546c21a4ae",
	"luby grid:45:45 seed=4":      "size=736 rounds=12 msgs=20682 bits=624425 ds=732ade02ce8c4fb4582e4e315b7bfb819bd1ba45c38105afc971d7ee31c59338",
	"luby udg:600:0.08:42 seed=1": "size=91 rounds=9 msgs=15652 bits=495978 ds=0ed6d3a610cbb7204c2532c676f28c45292bf2d536253440dc26ad1f4fc5fb25",
	"luby udg:600:0.08:42 seed=2": "size=94 rounds=9 msgs=15812 bits=505407 ds=27a614757b9e3d1cc5b0f95ce0bb3e5714d4cc4a4973ed695e6481ace0e51676",
	"luby udg:600:0.08:42 seed=3": "size=89 rounds=12 msgs=16235 bits=535189 ds=7fc77c82b7b4a3109982b15578f54bd0b0ac44f277c6977f0d086b91c8bd05fb",
	"luby udg:600:0.08:42 seed=4": "size=86 rounds=9 msgs=15871 bits=511088 ds=f7325cf40832dcf6b72688dcbbd4d0bf974281e0318f631d96d98a83a70aa109",
	"wuli ba:2000:3:4":            "size=1999 rounds=5 msgs=47952 bits=1730578 ds=832a7cba2fa2d0b04f298c3b52fa5351b7a2bd43e6211284463a3d352c8f7db0 marked=832a7cba2fa2d0b04f298c3b52fa5351b7a2bd43e6211284463a3d352c8f7db0 fallback=0",
	"wuli edgeless:0":             "size=0 rounds=0 msgs=0 bits=0 ds=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 marked=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 fallback=0",
	"wuli edgeless:1":             "size=1 rounds=5 msgs=0 bits=0 ds=4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a marked=6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d fallback=1",
	"wuli edgeless:5":             "size=5 rounds=5 msgs=0 bits=0 ds=377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb marked=8855508aade16ec573d21e6a485dfd0a7624085c1a14b5ecdd6485de0c6839a4 fallback=5",
	"wuli grid:45:45":             "size=2025 rounds=5 msgs=31680 bits=336187 ds=b17c758c86b1fbe52667a4f2a0284d0fa432aba1c6eee551ea9ab55dc4ca4487 marked=b17c758c86b1fbe52667a4f2a0284d0fa432aba1c6eee551ea9ab55dc4ca4487 fallback=0",
	"wuli udg:600:0.08:42":        "size=295 rounds=5 msgs=27536 bits=743869 ds=ba7fcfc58dda6edfdee408ca2290e958cca52a8110c7da5dc62d9c78010f46a1 marked=ba7fcfc58dda6edfdee408ca2290e958cca52a8110c7da5dc62d9c78010f46a1 fallback=0",
}

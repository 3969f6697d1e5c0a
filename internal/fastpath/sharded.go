package fastpath

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"kwmds/internal/core"
	"kwmds/internal/graph"
	"kwmds/internal/shard"
)

// This file is the sharded execution mode of the fastpath engine: the same
// phase kernels, run over one contiguous vertex range per shard, with halo
// state swapped through a shard.Exchange at every point where a kernel would
// read a peer-owned value. The single-process path is the degenerate 1-shard
// case (no peers, every swap a no-op), and the determinism suites enforce
// bit-identical output against the unsharded solver at every shard count.
//
// Bit-identity rests on a small set of invariants:
//
//   - A shard owns its bitset words outright ([W0, W1) word-aligned), so the
//     per-shard kernels are the existing per-worker kernels with the shard's
//     word range installed.
//   - x, δ̃, a, γ⁽¹⁾, γ⁽²⁾, δ⁽¹⁾/δ⁽²⁾ and every bitset are written only by
//     their owner; each cross-shard read point is preceded by an exchange
//     step that installs the owner's exact value into the reader's halo.
//   - Branch conditions that could diverge — the global white count, the
//     changed-set size driving the sparse/dense recheck cutover — are
//     piggybacked as counters inside the payloads, so every shard takes the
//     same branch and performs the same Swap sequence (the lockstep
//     contract).
//   - δ̃ decrements for remote white→gray transitions are applied through
//     the partition's reverse halo index; decrements commute and each
//     vertex's zero crossing happens exactly once, so δ̃ and the support set
//     match the unsharded run bit for bit.
//   - The rounding coin flips draw from per-vertex streams keyed by GLOBAL
//     vertex id, so membership is placement-independent.
//
// Some halo state is deliberately left stale between refreshes (halo δ̃
// between outer iterations, halo dirty/gray bits): the kernels never read it
// — the drivers below note each such point.

// ShardResult is one shard's slice of a sharded solve. X and InDS cover the
// owned range [Lo, Hi) and alias the solver's storage: valid until the
// solver's next run, copy to keep.
type ShardResult struct {
	Lo, Hi       int
	X            []float64
	InDS         []bool
	JoinedRandom int
	JoinedFixup  int
}

// exchange step tags, in the order a solve performs them. The step identity
// is implicit in the lockstep call order; the tags exist for the wire
// transport's framing and for debugging.
const (
	stepHello  = 0 // [u8 needD2][u64 cfgHash]
	stepD1     = 1 // i32 δ⁽¹⁾ per Out[t] vertex
	stepX      = 2 // [u32 changedLocal][u32 npairs]{u32 gid, f64 x}*
	stepGray   = 3 // [u32 markedLocal][u32 nids]{u32 gid}*
	stepActive = 4 // packed activity bits per Out[t] vertex
	stepAcnt   = 5 // i32 a(v) per Out[t] vertex
	stepDtil   = 6 // i32 δ̃ per Out[t] vertex
	stepGamma1 = 7 // i32 γ⁽¹⁾ per Out[t] vertex
	stepFlip   = 8 // packed coin-flip bits per Out[t] vertex
)

// shardRun carries the per-solve exchange state of one shard: the encode
// banks alternate between two generations because a peer may still be
// decoding step s while this shard builds step s+1 — under the lockstep
// contract a bank is reused no earlier than step s+2, by which time every
// receiver has swapped again and released its view.
type shardRun struct {
	s     *Solver
	sc    *graph.ShardedCSR
	sh    *graph.ShardCSR
	ex    shard.Exchange
	banks [2][][]byte
	step  int
}

// swap builds one payload per peer via build (append into buf, return the
// result) and performs the exchange. Received payloads are valid until the
// next swap.
func (r *shardRun) swap(build func(t int, buf []byte) []byte) ([][]byte, error) {
	out := r.banks[r.step&1]
	if out == nil {
		out = make([][]byte, r.ex.Members())
		r.banks[r.step&1] = out
	}
	self := r.ex.Self()
	for t := range out {
		if t == self {
			continue
		}
		out[t] = build(t, out[t][:0])
	}
	r.step++
	return r.ex.Swap(out)
}

// swapI32 exchanges one int32 per boundary vertex: vals[Out[t][i]] goes out,
// the received value lands in vals[In[t][i]] — the owner's exact bits
// installed into the halo.
func (r *shardRun) swapI32(vals []int32) error {
	sh := r.sh
	ins, err := r.swap(func(t int, buf []byte) []byte {
		for _, v := range sh.Out[t] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(vals[v]))
		}
		return buf
	})
	if err != nil {
		return err
	}
	for t, p := range ins {
		in := sh.In[t]
		if len(in) == 0 {
			continue
		}
		if len(p) != 4*len(in) {
			return fmt.Errorf("fastpath: shard %d: peer %d sent %d bytes, want %d", sh.Index, t, len(p), 4*len(in))
		}
		for i, u := range in {
			vals[u] = int32(binary.LittleEndian.Uint32(p[4*i:]))
		}
	}
	return nil
}

// swapBits exchanges one bit per boundary vertex out of words (a bitset's
// word array): bit i of the payload to peer t is Out[t][i]'s bit, and the
// received bit is installed — set or cleared — at In[t][i]. Clearing matters:
// halo words are never rebuilt locally, so stale bits from the previous
// iteration must be overwritten either way.
func (r *shardRun) swapBits(words []uint64) error {
	sh := r.sh
	ins, err := r.swap(func(t int, buf []byte) []byte {
		out := sh.Out[t]
		nb := (len(out) + 7) / 8
		base := len(buf)
		for i := 0; i < nb; i++ {
			buf = append(buf, 0)
		}
		for i, v := range out {
			if words[v>>6]&(1<<(uint32(v)&63)) != 0 {
				buf[base+i/8] |= 1 << (uint(i) % 8)
			}
		}
		return buf
	})
	if err != nil {
		return err
	}
	for t, p := range ins {
		in := sh.In[t]
		if len(in) == 0 {
			continue
		}
		if len(p) != (len(in)+7)/8 {
			return fmt.Errorf("fastpath: shard %d: peer %d sent %d bytes, want %d", sh.Index, t, len(p), (len(in)+7)/8)
		}
		for i, u := range in {
			if p[i/8]&(1<<(uint(i)%8)) != 0 {
				words[u>>6] |= 1 << (uint32(u) & 63)
			} else {
				words[u>>6] &^= 1 << (uint32(u) & 63)
			}
		}
	}
	return nil
}

// cfgHash fingerprints everything that must agree across the shard group for
// the lockstep to be sound: the partition shape and the solve parameters.
// Cost vectors enter by value — a mismatch would silently diverge the
// weighted activity tests.
func cfgHash(sc *graph.ShardedCSR, opt Options) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(sc.N))
	put(uint64(sc.NumShards))
	put(uint64(sc.MaxDeg))
	put(uint64(opt.K))
	put(uint64(opt.Algorithm))
	put(uint64(opt.Seed))
	put(uint64(opt.Variant))
	put(uint64(len(opt.Costs)))
	for _, c := range opt.Costs {
		put(math.Float64bits(c))
	}
	return h.Sum64()
}

// SolveShard runs the full pipeline (LP stage + randomized rounding) for one
// shard of a partitioned graph, exchanging boundary state through ex at every
// phase barrier. Every member of the exchange group must call SolveShard with
// the same partition shape and options (enforced by a config-hash handshake)
// and with si == ex.Self(). The concatenation of the members' ShardResults is
// bit-identical to an unsharded Solve over the whole graph.
//
// opt.Workers bounds the phase parallelism WITHIN the shard (0 selects
// GOMAXPROCS); as everywhere else, the worker count never affects output.
func (s *Solver) SolveShard(sc *graph.ShardedCSR, si int, ex shard.Exchange, opt Options) (ShardResult, error) {
	if err := core.ValidateK(opt.K); err != nil {
		return ShardResult{}, err
	}
	if sc == nil {
		return ShardResult{}, fmt.Errorf("fastpath: nil partition")
	}
	if ex == nil {
		return ShardResult{}, fmt.Errorf("fastpath: nil exchange")
	}
	if ex.Members() != sc.NumShards {
		return ShardResult{}, fmt.Errorf("fastpath: exchange has %d members for %d shards", ex.Members(), sc.NumShards)
	}
	if opt.Relab != nil {
		// A Relabeled permutes one whole-graph CSR; the partition's shard
		// CSRs are built over the original vertex order and the lockstep
		// payloads carry global ids. Reject rather than silently ignore.
		return ShardResult{}, fmt.Errorf("fastpath: SolveShard does not support Options.Relab")
	}
	if si < 0 || si >= sc.NumShards || si != ex.Self() {
		return ShardResult{}, fmt.Errorf("fastpath: shard index %d does not match exchange member %d", si, ex.Self())
	}
	sh := sc.Shard(si)
	if err := s.prepareShard(sc, sh, opt); err != nil {
		return ShardResult{}, err
	}
	defer s.stopWorkers()

	r := &shardRun{s: s, sc: sc, sh: sh, ex: ex}

	// Hello: agree on the configuration and on whether the static δ⁽¹⁾/δ⁽²⁾
	// pass runs. A pooled solver may hold cached tables for this partition
	// while its peers do not; the pass is all-or-none so the Swap sequences
	// stay aligned.
	needD2 := byte(0)
	if !s.d2done {
		needD2 = 1
	}
	h := cfgHash(sc, opt)
	ins, err := r.swap(func(t int, buf []byte) []byte {
		buf = append(buf, needD2)
		return binary.LittleEndian.AppendUint64(buf, h)
	})
	if err != nil {
		return ShardResult{}, err
	}
	need := needD2 != 0
	for t, p := range ins {
		if p == nil {
			continue
		}
		if len(p) != 9 {
			return ShardResult{}, fmt.Errorf("fastpath: shard %d: malformed hello from peer %d", si, t)
		}
		if ph := binary.LittleEndian.Uint64(p[1:]); ph != h {
			return ShardResult{}, fmt.Errorf("fastpath: shard %d: configuration mismatch with peer %d", si, t)
		}
		if p[0] != 0 {
			need = true
		}
	}
	if need {
		// δ⁽¹⁾ over the owned range, reading neighbor degrees from the
		// partition's shared degree array (the halo's CSR rows are not
		// local); phaseD1's m1 seed off[v+1]-off[v] is exactly Deg[v], so
		// the values match the unsharded kernel bit for bit.
		s.dispatch(r.shardD1)
		if err := r.swapI32(s.d1); err != nil { // halo δ⁽¹⁾ for the δ⁽²⁾ max
			return ShardResult{}, err
		}
		s.dispatch(s.fnD2)
		s.d2done = true
	}

	// LP stage.
	switch opt.Algorithm {
	case Alg2:
		pw := s.powTable(sc.MaxDeg, opt.K)
		err = r.lpThreshold(opt.K, pw, pw)
	case AlgWeighted:
		pw := s.powTable(sc.MaxDeg, opt.K)
		err = r.lpThreshold(opt.K, s.weightedThresholds(sc.MaxDeg, opt.K), pw)
	default:
		err = r.lpAlg3(opt.K)
	}
	if err != nil {
		return ShardResult{}, err
	}

	// Rounding.
	if !(s.scaleValid && s.scaleVariant == opt.Variant && len(s.scaleTab) == s.maxDeg+1) {
		s.scaleTab = growF64(s.scaleTab, s.maxDeg+1)
		for i := range s.scaleTab {
			s.scaleTab[i] = opt.Variant.Scale(i)
		}
		s.scaleVariant, s.scaleValid = opt.Variant, true
	}
	s.curX = s.x[:s.n]
	s.curSeed = opt.Seed
	s.curVariant = opt.Variant
	for c := 0; c < s.nchunks; c++ {
		s.joinCnt[c] = [2]int{}
	}
	s.dispatch(s.fnFlip)
	if err := r.swapBits(s.flipped.Words()); err != nil { // halo flips for the fix-up scan
		return ShardResult{}, err
	}
	s.dispatch(s.fnFixup)
	s.curX = nil

	res := ShardResult{Lo: sh.Lo, Hi: sh.Hi, X: s.x[sh.Lo:sh.Hi], InDS: s.inDS[sh.Lo:sh.Hi]}
	for c := 0; c < s.nchunks; c++ {
		res.JoinedRandom += s.joinCnt[c][0]
		res.JoinedFixup += s.joinCnt[c][1]
	}
	return res, nil
}

// prepareShard is prepare for one shard of a partition: full-length buffers
// (halo state lives at its global index), the shard's CSR view and word
// range installed, and the LP state reset. The halo portions of x and a MUST
// read as zero — the covering sums and activity maxima read them before the
// first exchange refresh — so both are cleared over the full vertex range;
// δ̃ is owner-exact only (halo δ̃ is garbage until the STEP_DTIL refresh
// preceding its only read point, the γ⁽¹⁾ sweep).
func (s *Solver) prepareShard(sc *graph.ShardedCSR, sh *graph.ShardCSR, opt Options) error {
	n := sc.N
	if opt.Algorithm == AlgWeighted {
		cmax, err := validateCosts(n, opt.Costs)
		if err != nil {
			return err
		}
		s.curCosts, s.curCmax = opt.Costs, cmax
	} else {
		s.curCosts, s.curCmax = nil, 0
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shw := sh.W1 - sh.W0
	if workers > shw {
		workers = shw
	}
	if workers < 1 {
		workers = 1
	}
	// δ⁽¹⁾/δ⁽²⁾ survive across solves of the same shard view, keyed like
	// prepare's tables on a pointer the solver holds (a partition is built
	// once per topology and reused). The whole-graph key is cleared and the
	// LP memo dropped on every call: this run writes x, and so does every
	// exchange that installs a peer's values into the halo.
	off := sh.Off
	if s.sh != sh {
		s.d2done = false
	}
	s.g, s.sh, s.relab, s.drawID = nil, sh, nil, nil
	s.lpValid = false
	s.ensure(n, workers)
	s.off, s.adj = sh.Off, sh.Adj
	s.maxDeg = sc.MaxDeg
	// Re-chunk over the shard's word range instead of [0, nw).
	s.chunkify(sh.W0, sh.W1)
	s.whiteCount = n // global: kept in sync via the exchanged counters
	for v := 0; v < n; v++ {
		s.x[v] = 0
		s.acnt[v] = 0
	}
	for v := sh.Lo; v < sh.Hi; v++ {
		s.dtil[v] = int32(off[v+1]-off[v]) + 1
	}
	s.startWorkers()
	return nil
}

// shardD1 is phaseD1 against the partition's shared degree array.
func (r *shardRun) shardD1(c int) {
	s := r.s
	off, adj, d1, deg := s.off, s.adj, s.d1, r.sc.Deg
	v0, v1 := s.c0[c]<<6, s.c1[c]<<6
	if v1 > s.n {
		v1 = s.n
	}
	for v := v0; v < v1; v++ {
		m1 := deg[v]
		for _, u := range adj[off[v]:off[v+1]] {
			if deg[u] > m1 {
				m1 = deg[u]
			}
		}
		d1[v] = m1
	}
}

// lpThreshold is the sharded driver of Algorithm 2 and the weighted variant:
// the unsharded loop with the covering recheck replaced by the exchanging
// version. The white count is global on every shard, so the early exits
// fire in lockstep.
func (r *shardRun) lpThreshold(k int, thrTab, pw []float64) error {
	s := r.s
	for l := k - 1; l >= 0; l-- {
		if s.whiteCount == 0 {
			return nil
		}
		s.curThr = thrTab[l] * (1 - core.ThrSlack)
		for m := k - 1; m >= 0; m-- {
			if s.whiteCount == 0 {
				return nil
			}
			s.curXval = 1 / pw[m]
			s.resetChunkLists()
			s.dispatch(s.fnLPActivity)
			if err := r.recheckCoverage(); err != nil {
				return err
			}
		}
	}
	return nil
}

// lpAlg3 is the sharded Algorithm 3 driver. Halo refreshes: activity bits
// before the a-count, a-counts before the x-update, δ̃ before the γ⁽¹⁾
// sweep, γ⁽¹⁾ before the γ⁽²⁾ max. The γ⁽¹⁾ sweep always runs dense — the
// sparse cutover would need a global support count, and the dense sweep's
// extra γ⁽¹⁾ values are never read (γ⁽²⁾ is evaluated over the support
// only), so the output is identical either way.
func (r *shardRun) lpAlg3(k int) error {
	s, sh := r.s, r.sh
	for v := sh.Lo; v < sh.Hi; v++ {
		s.gamma2[v] = s.d2[v] + 1
	}
	s.powTabL = growF64(s.powTabL, s.maxDeg+2)
	s.powTabM = growF64(s.powTabM, s.maxDeg+2)
	for l := k - 1; l >= 0; l-- {
		if s.whiteCount == 0 {
			return nil
		}
		expL := float64(l) / float64(l+1)
		for i := range s.powTabL {
			s.powTabL[i] = math.Pow(float64(i), expL)
		}
		for m := k - 1; m >= 0; m-- {
			if s.whiteCount == 0 {
				return nil
			}
			s.dispatch(s.fnA3Active)
			if err := r.swapBits(s.active.Words()); err != nil {
				return err
			}
			s.dispatch(s.fnA3Count)
			if err := r.swapI32(s.acnt); err != nil {
				return err
			}
			expM := -float64(m) / float64(m+1)
			for i := range s.powTabM {
				s.powTabM[i] = math.Pow(float64(i), expM)
			}
			s.resetChunkLists()
			s.dispatch(s.fnA3Update)
			if err := r.recheckCoverage(); err != nil {
				return err
			}
		}
		if l > 0 && s.whiteCount > 0 {
			if err := r.swapI32(s.dtil); err != nil {
				return err
			}
			s.dispatch(s.fnGamma1All)
			if err := r.swapI32(s.gamma1); err != nil {
				return err
			}
			s.dispatch(s.fnGamma2)
		}
	}
	return nil
}

// recheckCoverage is the sharded covering re-evaluation. Two exchange steps
// frame the local work:
//
//   - STEP_X publishes the iteration's boundary x-raises plus the LOCAL
//     changed count. Every shard then knows the GLOBAL changed count, so
//     the zero-change early exit and the sparse/dense cutover (measured
//     against the global white count, as unsharded) agree everywhere.
//   - STEP_GRAY publishes the boundary white→gray transitions plus the
//     local marked count; remote transitions reach the owned δ̃ through the
//     reverse halo index, and the global marked count settles the white
//     count.
//
// In the sparse path the local dirty marking also sets halo bits (markNbhd
// is range-oblivious) and a remote x-raise's own dirty bit is never set
// locally — both harmless: the recheck kernels scan only the shard's own
// words, and the raised vertex's owner rechecks it from its own marking.
func (r *shardRun) recheckCoverage() error {
	s, sh := r.s, r.sh
	self := r.ex.Self()
	changedLocal := s.totalChanged()
	ins, err := r.swap(func(t int, buf []byte) []byte {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(changedLocal))
		cntAt := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		npairs := uint32(0)
		bit := uint64(1) << uint(t)
		for c := 0; c < s.nchunks; c++ {
			for _, v := range s.changed[c] {
				if sh.PeerMask[int(v)-sh.Lo]&bit != 0 {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.x[v]))
					npairs++
				}
			}
		}
		binary.LittleEndian.PutUint32(buf[cntAt:], npairs)
		return buf
	})
	if err != nil {
		return err
	}
	changedGlobal := changedLocal
	for t, p := range ins {
		if t == self {
			continue
		}
		if len(p) < 8 {
			return fmt.Errorf("fastpath: shard %d: malformed x-update from peer %d", sh.Index, t)
		}
		changedGlobal += int(binary.LittleEndian.Uint32(p))
	}
	if changedGlobal == 0 {
		return nil
	}
	dense := changedGlobal*4 >= s.whiteCount
	dw := s.dirty.Words()
	for t, p := range ins {
		if t == self || p == nil {
			continue
		}
		npairs := int(binary.LittleEndian.Uint32(p[4:]))
		if len(p) != 8+12*npairs {
			return fmt.Errorf("fastpath: shard %d: malformed x-update from peer %d", sh.Index, t)
		}
		q := p[8:]
		for i := 0; i < npairs; i++ {
			gid := int32(binary.LittleEndian.Uint32(q))
			s.x[gid] = math.Float64frombits(binary.LittleEndian.Uint64(q[4:]))
			q = q[12:]
			if !dense {
				hi := sh.HaloIndex(t, gid)
				if hi < 0 {
					return fmt.Errorf("fastpath: shard %d: peer %d raised non-boundary vertex %d", sh.Index, t, gid)
				}
				for _, v := range sh.RevAdj[t][sh.RevOff[t][hi]:sh.RevOff[t][hi+1]] {
					dw[v>>6] |= 1 << (uint32(v) & 63)
				}
			}
		}
	}
	if dense {
		s.dispatch(s.fnCovRecheckAll)
	} else {
		s.dispatch(s.fnMarkDirty)
		s.dispatch(s.fnCovRecheck)
	}

	markedLocal := 0
	for c := 0; c < s.nchunks; c++ {
		markedLocal += len(s.newGray[c])
	}
	ins, err = r.swap(func(t int, buf []byte) []byte {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(markedLocal))
		cntAt := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		nids := uint32(0)
		bit := uint64(1) << uint(t)
		for c := 0; c < s.nchunks; c++ {
			for _, v := range s.newGray[c] {
				if sh.PeerMask[int(v)-sh.Lo]&bit != 0 {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
					nids++
				}
			}
		}
		binary.LittleEndian.PutUint32(buf[cntAt:], nids)
		return buf
	})
	if err != nil {
		return err
	}
	s.applyNewGray() // local transitions; subtracts markedLocal from whiteCount
	for t, p := range ins {
		if t == self {
			continue
		}
		if len(p) < 8 {
			return fmt.Errorf("fastpath: shard %d: malformed gray-update from peer %d", sh.Index, t)
		}
		s.whiteCount -= int(binary.LittleEndian.Uint32(p))
		nids := int(binary.LittleEndian.Uint32(p[4:]))
		if len(p) != 8+4*nids {
			return fmt.Errorf("fastpath: shard %d: malformed gray-update from peer %d", sh.Index, t)
		}
		q := p[8:]
		for i := 0; i < nids; i++ {
			gid := int32(binary.LittleEndian.Uint32(q))
			q = q[4:]
			hi := sh.HaloIndex(t, gid)
			if hi < 0 {
				return fmt.Errorf("fastpath: shard %d: peer %d grayed non-boundary vertex %d", sh.Index, t, gid)
			}
			// The remote vertex turned gray: its owned neighbors lose one
			// white member of their closed neighborhood. The halo vertex's
			// own δ̃ and gray bit stay untouched — never read here.
			for _, v := range sh.RevAdj[t][sh.RevOff[t][hi]:sh.RevOff[t][hi+1]] {
				s.dtil[v]--
				if s.dtil[v] == 0 {
					s.support.Clear(int(v))
				}
			}
		}
	}
	return nil
}

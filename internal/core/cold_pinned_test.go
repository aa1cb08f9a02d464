package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// pinnedRun is a partition.Distributed that runs the production cold
// Partition and records the FNV-64a hash of every rank's returned
// (IDs, A) pair. With first > 0 the scattered input is first re-split so
// that rank 0 holds only that many points and the others share the rest
// evenly (feature space and the ablation ingest keep that layout; the
// SFC bootstrap would rebalance it away).
type pinnedRun struct {
	bkm   *BalancedKMeans
	first int
	sums  []uint64
}

func (p *pinnedRun) Name() string { return "pinned" }

func (p *pinnedRun) Partition(c *mpi.Comm, pts *partition.Local, k int) ([]int64, []int32, error) {
	if p.first > 0 {
		pts = skew(c, pts, p.first)
	}
	ids, blocks, err := p.bkm.Partition(c, pts, k)
	h := fnv.New64a()
	var buf [8]byte
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		binary.LittleEndian.PutUint32(buf[:4], uint32(blocks[i]))
		h.Write(buf[:4])
	}
	p.sums[c.Rank()] = h.Sum64()
	return ids, blocks, err
}

// skew gathers the scattered points and hands rank 0 the first `first`
// of them, splitting the remainder evenly over the other ranks.
func skew(c *mpi.Comm, pts *partition.Local, first int) *partition.Local {
	ids := mpi.AllgatherFlat(c, pts.IDs)
	w := mpi.AllgatherFlat(c, pts.W)
	lo, hi := 0, first
	if r, p := c.Rank(), c.Size(); r > 0 {
		rest := len(ids) - first
		lo, hi = first+(r-1)*rest/(p-1), first+r*rest/(p-1)
	}
	out := &partition.Local{IDs: ids[lo:hi], W: w[lo:hi], X: geom.MakeCols(pts.X.Dim, hi-lo)}
	for d, col := range pts.X.Col {
		copy(out.X.Col[d], mpi.AllgatherFlat(c, col)[lo:hi])
	}
	return out
}

// coldPin is what one pinned cold run must reproduce: the per-rank
// (IDs, A) hashes and the aggregated pass counters.
type coldPin struct {
	sums                                        []uint64
	iters, rounds                               int
	distCalcs, hamerlySkips, bboxBreaks, visits int64
}

func (c coldPin) String() string {
	s := "{[]uint64{"
	for i, v := range c.sums {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%#x", v)
	}
	return s + fmt.Sprintf("}, %d, %d, %d, %d, %d, %d}",
		c.iters, c.rounds, c.distCalcs, c.hamerlySkips, c.bboxBreaks, c.visits)
}

// TestColdPartitionPinned pins whole cold runs to the bit: the sampled
// bootstrap (§4.5), its transition to the full point set and everything
// after it, at d = 2, 3 and 16, in every bounds mode, on one and three
// ranks, plus the transition's edge paths — a rank too small to sample
// while the others do, MaxIter ending the run mid-sample (the post-loop
// fallback), Strict's balance-only rounds, curve seeding at d = 1 (the
// curve's 1D key arm end to end), random-index seeding (SFCBootstrap
// off) at d = 1 and 3, and the unsampled path (SampledInit off: no
// shuffle, exact reductions) at d = 2 and 16, whose values were captured
// when it was switched on by a separate Deterministic field. The other
// values were captured from the implementation
// that gathers the sample through the shuffle permutation (the
// random-init rows from the one that gathered d ≤ 3 seeds as Point
// structs, the curve-init row from the one that keyed 1D points through
// Skilling's scalar transpose); the rows without the curve bootstrap were captured again when
// their sampled balance calls began stopping after sampledBalanceRounds
// (small-rank/d=16 kept its values: its sampled calls balance sooner).
// The curve-seeded Hamerly rows at d = 2 and 3 took new distance and
// break counts, and nothing else, when a point still unassigned under the
// center-center tables began its rescan from its curve block instead of
// in box order.
// Any change to the cold path's arithmetic order, layout, seeding, round
// count or counters moves one of them. Weights are non-uniform, so the sample
// weight and center sums see their summation order.
func TestColdPartitionPinned(t *testing.T) {
	type pinCase struct {
		name         string
		dim, n, k, p int
		bounds       BoundsKind
		first        int
		adjust       func(*Config)
	}
	var cases []pinCase
	for _, dim := range []int{2, 3, 16} {
		n := 6000
		if dim == 16 {
			n = 3000
		}
		for _, bounds := range []BoundsKind{BoundsHamerly, BoundsElkan, BoundsNone} {
			for _, p := range []int{1, 3} {
				cases = append(cases, pinCase{
					name: fmt.Sprintf("d=%d/%s/p=%d", dim, bounds, p),
					dim:  dim, n: n, k: 8, p: p, bounds: bounds,
				})
			}
		}
	}
	noSFC := func(cfg *Config) { cfg.SFCBootstrap = false }
	unsampled := func(cfg *Config) { cfg.SampledInit = false }
	cases = append(cases,
		pinCase{name: "small-rank/d=16/hamerly", dim: 16, n: 3000, k: 8, p: 3, bounds: BoundsHamerly, first: 60},
		pinCase{name: "small-rank/d=2/elkan", dim: 2, n: 6000, k: 8, p: 3, bounds: BoundsElkan, first: 90, adjust: noSFC},
		pinCase{name: "maxiter=3/d=2/hamerly", dim: 2, n: 6000, k: 8, p: 3, bounds: BoundsHamerly,
			adjust: func(cfg *Config) { cfg.MaxIter = 3 }},
		pinCase{name: "maxiter=3/d=16/elkan", dim: 16, n: 3000, k: 8, p: 3, bounds: BoundsElkan,
			adjust: func(cfg *Config) { cfg.MaxIter = 3 }},
		pinCase{name: "strict/d=2/hamerly", dim: 2, n: 6000, k: 8, p: 3, bounds: BoundsHamerly,
			adjust: func(cfg *Config) { cfg.Strict, cfg.Epsilon, cfg.MaxBalanceIter, cfg.MaxIter = true, 1e-4, 2, 8 }},
		pinCase{name: "curve-init/d=1/p=3", dim: 1, n: 6000, k: 8, p: 3, bounds: BoundsHamerly},
		pinCase{name: "random-init/d=1/p=3", dim: 1, n: 6000, k: 8, p: 3, bounds: BoundsHamerly, adjust: noSFC},
		pinCase{name: "random-init/d=3/p=1", dim: 3, n: 6000, k: 8, p: 1, bounds: BoundsElkan, adjust: noSFC},
		pinCase{name: "unsampled/d=2/hamerly/p=3", dim: 2, n: 6000, k: 8, p: 3, bounds: BoundsHamerly, adjust: unsampled},
		pinCase{name: "unsampled/d=16/hamerly/p=3", dim: 16, n: 3000, k: 8, p: 3, bounds: BoundsHamerly, adjust: unsampled},
	)

	want := map[string]coldPin{
		"d=2/hamerly/p=1":            {[]uint64{0x647ffe79c15fbbb8}, 53, 145, 241109, 396709, 58665, 456800},
		"d=2/hamerly/p=3":            {[]uint64{0xea9c92ec8c46095, 0x160087326fd36ec3, 0x561273cf2c321e16}, 24, 70, 155792, 183148, 39211, 222600},
		"d=2/elkan/p=1":              {[]uint64{0x647ffe79c15fbbb8}, 53, 145, 520261, 3134139, 0, 456800},
		"d=2/elkan/p=3":              {[]uint64{0xea9c92ec8c46095, 0x160087326fd36ec3, 0x561273cf2c321e16}, 24, 70, 263343, 886881, 222456, 222600},
		"d=2/none/p=1":               {[]uint64{0x647ffe79c15fbbb8}, 53, 145, 3654400, 0, 0, 456800},
		"d=2/none/p=3":               {[]uint64{0xea9c92ec8c46095, 0x160087326fd36ec3, 0x561273cf2c321e16}, 24, 70, 1375413, 0, 190393, 222600},
		"d=3/hamerly/p=1":            {[]uint64{0xfddd4c38417b235c}, 11, 67, 94442, 64126, 13354, 80800},
		"d=3/hamerly/p=3":            {[]uint64{0xda116b6125377a1f, 0x705318ea2aab3935, 0x51bb8a84aa3f914d}, 15, 65, 144525, 104717, 21702, 130800},
		"d=3/elkan/p=1":              {[]uint64{0xfddd4c38417b235c}, 11, 67, 127439, 518961, 0, 80800},
		"d=3/elkan/p=3":              {[]uint64{0xda116b6125377a1f, 0x705318ea2aab3935, 0x51bb8a84aa3f914d}, 15, 65, 174272, 618934, 87774, 130800},
		"d=3/none/p=1":               {[]uint64{0xfddd4c38417b235c}, 11, 67, 646400, 0, 0, 80800},
		"d=3/none/p=3":               {[]uint64{0xda116b6125377a1f, 0x705318ea2aab3935, 0x51bb8a84aa3f914d}, 15, 65, 1027844, 0, 12209, 130800},
		"d=16/hamerly/p=1":           {[]uint64{0x7f9540e4d12261be}, 31, 62, 344680, 72315, 0, 115400},
		"d=16/hamerly/p=3":           {[]uint64{0xeebe4a032758cd9e, 0x561ef1daf207fc48, 0x2780882e52a3fa87}, 31, 54, 371824, 73522, 0, 120000},
		"d=16/elkan/p=1":             {[]uint64{0x7f9540e4d12261be}, 31, 62, 195761, 727415, 8, 115400},
		"d=16/elkan/p=3":             {[]uint64{0xeebe4a032758cd9e, 0x561ef1daf207fc48, 0x2780882e52a3fa87}, 31, 54, 207583, 752369, 16, 120000},
		"d=16/none/p=1":              {[]uint64{0x7f9540e4d12261be}, 31, 62, 923200, 0, 0, 115400},
		"d=16/none/p=3":              {[]uint64{0xeebe4a032758cd9e, 0x561ef1daf207fc48, 0x2780882e52a3fa87}, 31, 54, 960000, 0, 0, 120000},
		"small-rank/d=16/hamerly":    {[]uint64{0x82064a0f41c7f1f1, 0xdb9b8f25fb3de978, 0x43c8215b36107463}, 30, 51, 358424, 71357, 0, 116160},
		"small-rank/d=2/elkan":       {[]uint64{0xce5affe8aaed0316, 0xe6eae7defb345d1a, 0xa3bd4a01621218ef}, 16, 53, 203421, 1033859, 0, 154660},
		"maxiter=3/d=2/hamerly":      {[]uint64{0x504e4eb5b2aedc29, 0x8dd5de7b23d9781f, 0xf8e4e6dc20e20977}, 3, 38, 45275, 37206, 9980, 47400},
		"maxiter=3/d=16/elkan":       {[]uint64{0x70d3caede8389e74, 0x5726d936a22cd949, 0x8475cab18823d33c}, 3, 19, 42920, 86632, 16, 16200},
		"strict/d=2/hamerly":         {[]uint64{0x64c1c0a8025acce5, 0x6d22889a2473d3fb, 0x3964ce480e5a3396}, 8, 616, 403815, 3552069, 101719, 3654600},
		"curve-init/d=1/p=3":         {[]uint64{0xc6649f37614058b0, 0xb7bbc85e7e87c3e2, 0x49ceaa3f6aba3bb7}, 9, 88, 87186, 250709, 27691, 278400},
		"random-init/d=1/p=3":        {[]uint64{0xc3fa14b6589bc3d1, 0x8d9e1f0345fa2b00, 0x26619007f58332a5}, 12, 128, 406112, 514249, 73254, 602400},
		"random-init/d=3/p=1":        {[]uint64{0x2ba667b78d726b61}, 14, 48, 145113, 642087, 0, 98400},
		"unsampled/d=2/hamerly/p=3":  {[]uint64{0x10ccdcca657b0a8e, 0x198b5e31c414573b, 0xc9927d14374b88a5}, 24, 52, 233633, 252986, 58884, 312000},
		"unsampled/d=16/hamerly/p=3": {[]uint64{0x6d9aee3f0b351896, 0x4c72fd674ffbdb22, 0xd7ed110e331099f8}, 37, 55, 516168, 100479, 0, 165000},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps := flatRandomPoints(tc.n, tc.dim, int64(70+tc.dim))
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.Seed = 5
			cfg.Bounds = tc.bounds
			if tc.adjust != nil {
				tc.adjust(&cfg)
			}
			run := &pinnedRun{bkm: New(cfg), first: tc.first, sums: make([]uint64, tc.p)}
			part, err := partition.Run(mpi.NewWorld(tc.p), ps, tc.k, run)
			if err != nil {
				t.Fatal(err)
			}
			if err := part.Validate(false); err != nil {
				t.Fatal(err)
			}
			in := run.bkm.LastInfo()
			got := coldPin{run.sums, in.Iterations, in.BalanceRounds,
				in.DistCalcs, in.HamerlySkips, in.BBoxBreaks, in.Visits}.String()
			if got != want[tc.name].String() {
				t.Errorf("cold run moved:\n got  %q: %s,\n want %q: %s,", tc.name, got, tc.name, want[tc.name])
			}
		})
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/sfc"
)

// refIngest is the sequential reference of Partition's ingest phases
// (§4.1 keys + global sort + redistribution): every rank gathers all
// records, keys them all at once with sfc.Curve.KeysCols, sorts them by
// (Key, ID) with sort.Slice and keeps its balanced cut — global positions
// [⌈r·n/p⌉, ⌈(r+1)·n/p⌉) — where production keys each rank's own points,
// then runs the radix sample sort and flat column exchanges. It hands the
// same state to the same k-means phase, and — being a test-side Partition —
// is where a test can look at that state afterwards: probe, when set,
// sees each rank's state after the run.
type refIngest struct {
	*BalancedKMeans
	probe func(st *state)
}

func (b refIngest) Partition(c *mpi.Comm, pts *partition.Local, k int) ([]int64, []int32, error) {
	st, err := b.ingest(c, pts, k)
	if err != nil {
		return nil, nil, err
	}
	return b.finishProbed(st)
}

// ingest builds the state the k-means phase starts from: this rank's
// share of the globally ordered points.
func (b refIngest) ingest(c *mpi.Comm, pts *partition.Local, k int) (*state, error) {
	cfg := b.Cfg.normalized()
	if err := cfg.Validate(k); err != nil {
		return nil, err
	}
	dim := pts.X.Dim
	if dim > geom.MaxDim {
		cfg.SFCBootstrap = false // no curve beyond MaxDim, as in production
	}
	st := &state{c: c, cfg: cfg, dim: dim, k: k}
	bmin, bmax := make([]float64, dim), make([]float64, dim)
	partition.GlobalBounds(c, &pts.X, nil, bmin, bmax)
	st.diag = geom.FlatBoxDiagonal(bmin, bmax)
	if st.diag == 0 {
		st.diag = 1
	}
	// Without the SFC bootstrap the columns fill straight from the input
	// in id order, as in production.
	ids, w, x, order := pts.IDs, pts.W, pts.X, make([]int, pts.Len())
	for i := range order {
		order[i] = i
	}
	if cfg.SFCBootstrap {
		ids, w = mpi.AllgatherFlat(c, ids), mpi.AllgatherFlat(c, w)
		x = geom.MakeCols(dim, len(ids))
		for d, col := range pts.X.Col {
			copy(x.Col[d], mpi.AllgatherFlat(c, col))
		}
		keys := make([]uint64, len(ids))
		order = make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		sfc.NewCurve(geom.FlatBoxToBox(bmin, bmax), dim).KeysCols(&x, keys)
		sort.Slice(order, func(a, b int) bool {
			i, j := order[a], order[b]
			return keys[i] < keys[j] || keys[i] == keys[j] && ids[i] < ids[j]
		})
		n, p, r := len(ids), c.Size(), c.Rank()
		order = order[(r*n+p-1)/p : ((r+1)*n+p-1)/p]
	}
	st.X = geom.MakeCols(dim, len(order))
	st.W = make([]float64, len(order))
	st.IDs = make([]int64, len(order))
	for i, src := range order {
		for d, col := range x.Col {
			st.X.Col[d][i] = col[src]
		}
		st.W[i], st.IDs[i] = w[src], ids[src]
	}
	return st, nil
}

func (b refIngest) finishProbed(st *state) ([]int64, []int32, error) {
	ids, blocks, err := b.finish(st, nil)
	if err == nil && b.probe != nil {
		b.probe(st)
	}
	return ids, blocks, err
}

// runWithIngest executes one Partition over a fresh world — through the
// sequential reference ingest when ref is set — returning the global
// assignment.
func runWithIngest(t *testing.T, ps *geom.PointSet, k, p int, cfg Config, ref bool) partition.P {
	t.Helper()
	if !ref {
		part, _ := runPartition(t, ps, k, p, cfg)
		return part
	}
	part, err := partition.Run(mpi.NewWorld(p), ps, k, refIngest{BalancedKMeans: New(cfg)})
	if err != nil {
		t.Fatalf("reference ingest k=%d p=%d: %v", k, p, err)
	}
	return part
}

// TestIngestMatchesReference is the end-to-end differential test of the
// SoA ingest rewrite: batch Hilbert keys + radix sample sort + flat SoA
// redistribution must yield the bit-identical final partition as the
// sequential reference (per-point keys, one sort.Slice, balanced cuts),
// across rank counts, worker counts and both dimensions.
func TestIngestMatchesReference(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 3, 4} {
			for _, workers := range []int{1, 3} {
				ps := uniformPoints(3000, dim, 21)
				cfg := DefaultConfig()
				cfg.Seed = 5
				cfg.Workers = workers
				want := runWithIngest(t, ps, 8, p, cfg, true)
				got := runWithIngest(t, ps, 8, p, cfg, false)
				for i := range want.Assign {
					if got.Assign[i] != want.Assign[i] {
						t.Fatalf("dim=%d p=%d workers=%d: point %d assigned %d (SoA) vs %d (reference)",
							dim, p, workers, i, got.Assign[i], want.Assign[i])
					}
				}
			}
		}
	}
}

// TestIngestMatchesReferenceWeighted repeats the differential on
// non-unit weights and a non-power-of-two rank count.
func TestIngestMatchesReferenceWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := geom.NewPointSet(2, 4000)
	ps.Weight = make([]float64, 0, 4000)
	for i := 0; i < 4000; i++ {
		ps.Append(geom.Point{rng.Float64(), rng.Float64()}, 0.1+3*rng.Float64())
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	want := runWithIngest(t, ps, 6, 3, cfg, true)
	got := runWithIngest(t, ps, 6, 3, cfg, false)
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("weighted: point %d assigned %d (SoA) vs %d (reference)", i, got.Assign[i], want.Assign[i])
		}
	}
}

// TestIngestMatchesReferenceNoBootstrap covers the ablation mode (no SFC
// sort): the SoA path must still feed identical columns to phase 3.
func TestIngestMatchesReferenceNoBootstrap(t *testing.T) {
	ps := uniformPoints(2000, 3, 33)
	cfg := DefaultConfig()
	cfg.SFCBootstrap = false
	cfg.Seed = 4
	want := runWithIngest(t, ps, 5, 4, cfg, true)
	got := runWithIngest(t, ps, 5, 4, cfg, false)
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("no-bootstrap: point %d assigned %d (SoA) vs %d (reference)", i, got.Assign[i], want.Assign[i])
		}
	}
}

// TestIngestEmptyRank keeps the SoA pipeline sound when some ranks start
// with zero points (more ranks than needed for a tiny input).
func TestIngestEmptyRank(t *testing.T) {
	ps := uniformPoints(7, 2, 1)
	part, _ := runPartition(t, ps, 2, 5, DefaultConfig())
	if err := part.Validate(false); err != nil {
		t.Fatal(err)
	}
}

// TestFoldBoundsMatchesMathMin pins the compare-first column fold of
// partition.GlobalBounds to the plain math.Min fold it replaced, bit for
// bit, on columns salted with the values where a compare and math.Min
// could part ways: signed zeros (the tie-break the packed min /
// negated-max reduction relies on), the largest magnitudes, infinities
// and subnormals. One rank, so the collective adds no ordering of its
// own; every prefix of the points is checked.
func TestFoldBoundsMatchesMathMin(t *testing.T) {
	salt := []float64{
		0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1040,
		math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewSource(31))
	var failure string
	err := mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		for _, dim := range []int{1, 2, 3, 16} {
			for trial := 0; trial < 200 && failure == ""; trial++ {
				x := geom.MakeCols(dim, 1+rng.Intn(12))
				for _, col := range x.Col {
					for i := range col {
						if col[i] = rng.NormFloat64(); rng.Intn(3) == 0 {
							col[i] = salt[rng.Intn(len(salt))]
						}
					}
				}
				want := make([]float64, 2*dim) // mins, then negated maxs
				for d := range want {
					want[d] = math.Inf(1)
				}
				bmin, bmax := make([]float64, dim), make([]float64, dim)
				for m := 1; m <= x.Len() && failure == ""; m++ {
					prefix := geom.Cols{Dim: dim, Col: make([][]float64, dim)}
					for d, col := range x.Col {
						prefix.Col[d] = col[:m]
						want[d] = math.Min(want[d], col[m-1])
						want[dim+d] = math.Min(want[dim+d], -col[m-1])
					}
					partition.GlobalBounds(c, &prefix, nil, bmin, bmax)
					for d := 0; d < dim; d++ {
						if math.Float64bits(bmin[d]) != math.Float64bits(want[d]) ||
							math.Float64bits(-bmax[d]) != math.Float64bits(want[dim+d]) {
							failure = fmt.Sprintf("dim=%d trial %d, %d points: axis %d box [%x, %x], math.Min fold [%x, %x]",
								dim, trial, m, d, bmin[d], bmax[d], want[d], -want[dim+d])
							break
						}
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if failure != "" {
		t.Fatal(failure)
	}
}

// BenchmarkIngestPhase measures the ingest phases (key computation +
// global sort + redistribution) through a full Partition on the facade
// workload shape (n=20k, p=4).
func BenchmarkIngestPhase(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	ps := geom.NewPointSet(2, 20000)
	for i := 0; i < 20000; i++ {
		ps.Append(geom.Point{rng.Float64(), rng.Float64()}, 1)
	}
	cfg := DefaultConfig()
	cfg.MaxIter = 1 // ingest dominates; keep the k-means tail short
	var ingest float64
	for i := 0; i < b.N; i++ {
		bkm := New(cfg)
		w := mpi.NewWorld(4)
		if _, err := partition.Run(w, ps, 16, bkm); err != nil {
			b.Fatal(err)
		}
		info := bkm.LastInfo()
		ingest += info.SFCSeconds + info.SortSeconds
	}
	b.ReportMetric(ingest/float64(b.N)*1e3, "ingest-ms/op")
}

// seedProbe is a test-side Partition that ingests through refIngest,
// places the cold initial centers and records them together with the
// global point order they were drawn from (rank-major, as ExscanSum
// numbers it); it returns every point in block 0.
type seedProbe struct {
	refIngest
	centers, points []float64
}

func (s *seedProbe) Partition(c *mpi.Comm, pts *partition.Local, k int) ([]int64, []int32, error) {
	st, err := s.ingest(c, pts, k)
	if err != nil {
		return nil, nil, err
	}
	// Gathered first: the run reset that ends the seeding may move the
	// points into the sampled bootstrap's shuffled order.
	local := make([]float64, st.X.Len()*st.dim)
	for i := 0; i < st.X.Len(); i++ {
		st.X.AtVec(i, local[i*st.dim:(i+1)*st.dim])
	}
	all := mpi.AllgatherFlat(c, local)
	if err := st.initCentersAndTargets(nil); err != nil {
		return nil, nil, err
	}
	if c.Rank() == 0 {
		s.centers, s.points = append([]float64(nil), st.centers...), all
	}
	return st.IDs, make([]int32, len(st.IDs)), nil
}

// TestColdSeedsAreInputPoints pins the cold seeding's index arithmetic:
// initial center i is, value for value, the point at global position
// i·n/k + n/2k of the curve order (Algorithm 2, line 7), or — with the
// SFC bootstrap off, and always beyond MaxDim — at the i-th draw of
// rng.Uint64() % n from the shared seed, on any rank count.
func TestColdSeedsAreInputPoints(t *testing.T) {
	const n, k = 900, 7
	for _, dim := range []int{2, 16} {
		for _, sfcOn := range []bool{true, false} {
			for _, p := range []int{1, 3} {
				t.Run(fmt.Sprintf("d=%d/sfc=%v/p=%d", dim, sfcOn, p), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Seed = 11
					cfg.SFCBootstrap = sfcOn
					probe := &seedProbe{refIngest: refIngest{BalancedKMeans: New(cfg)}}
					if _, err := partition.Run(mpi.NewWorld(p), flatRandomPoints(n, dim, 90), k, probe); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(cfg.Seed + 1))
					for i := 0; i < k; i++ {
						gi := i*n/k + n/(2*k)
						if !sfcOn || dim > geom.MaxDim {
							gi = int(rng.Uint64() % n)
						}
						got, want := probe.centers[i*dim:(i+1)*dim], probe.points[gi*dim:(gi+1)*dim]
						for d := range want {
							if got[d] != want[d] {
								t.Fatalf("center %d = %v, want point %d = %v", i, got, gi, want)
							}
						}
					}
				})
			}
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// The shapes of assignment pass the kernel microbenchmarks time.
const (
	passFull     = iota // BoundsNone, no prior bounds: every point scans all k
	passAnchored        // cold Hamerly with the center-center tables
	passRaw             // warm Hamerly, the raw shadow column attached
)

// benchAssignKernel measures one assignment pass of the squared-space
// batch kernel over every point. passFull is the raw O(n·k) hot loop
// future perf PRs report against. The two Hamerly shapes share one
// geometry and differ only by the raw column: a warm-up pass settles
// every point on its best center, and each timed pass voids the upper
// bounds first, so every point is rescanned by the anchored triangle walk.
func benchAssignKernel(b *testing.B, dim, pass int) {
	const n, k = 100_000, 16
	var st *state
	var sample []int32
	switch pass {
	case passFull:
		st, sample = kernelScenario(b, dim, n, k, BoundsNone, true, 7)
		for i := range st.A {
			st.A[i] = -1
		}
	case passAnchored:
		st, sample = kernelScenario(b, dim, n, k, BoundsHamerly, false, 7)
		st.scenarioCCTables()
	case passRaw:
		st, sample = rawScenario(b, dim, n, k, false, 7)
	}
	st.workers = 1
	st.shards = make([]geom.AssignKernel, kernelChunks(n))
	for s := range st.shards {
		st.shards[s].LocalW = make([]float64, k)
	}
	hamerly := pass != passFull
	if hamerly {
		st.runAssignKernels(sample)
	}
	b.SetBytes(int64(n * dim * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hamerly {
			for j := range st.ub {
				st.ub[j] = math.Inf(1)
			}
		}
		clear(st.localW)
		st.runAssignKernels(sample)
	}
}

func BenchmarkAssignKernel2D(b *testing.B) { benchAssignKernel(b, 2, passFull) }
func BenchmarkAssignKernel3D(b *testing.B) { benchAssignKernel(b, 3, passFull) }

// The gathered, blocked column walk of the kernels at d = 1 and beyond
// geom.MaxDim — the feature-space hot loop of the highdim experiment.
func BenchmarkAssignKernel1D(b *testing.B)  { benchAssignKernel(b, 1, passFull) }
func BenchmarkAssignKernel8D(b *testing.B)  { benchAssignKernel(b, 8, passFull) }
func BenchmarkAssignKernel16D(b *testing.B) { benchAssignKernel(b, 16, passFull) }

// The anchored rescan of the cold Hamerly pass, and the same rescan with
// the raw shadow column the warm incremental path attaches. The 2D cell is
// the pass of cold_mesh2d's sampled and full iterations.
func BenchmarkAssignKernelAnchored2D(b *testing.B)  { benchAssignKernel(b, 2, passAnchored) }
func BenchmarkAssignKernelAnchored3D(b *testing.B)  { benchAssignKernel(b, 3, passAnchored) }
func BenchmarkAssignKernelAnchored16D(b *testing.B) { benchAssignKernel(b, 16, passAnchored) }
func BenchmarkAssignKernelRaw3D(b *testing.B)       { benchAssignKernel(b, 3, passRaw) }
func BenchmarkAssignKernelRaw16D(b *testing.B)      { benchAssignKernel(b, 16, passRaw) }

// BenchmarkBuildCCTables measures one build of the k×k center-center
// tables (k² distances, k insertion sorts of k−1 ids) — the number
// ccTablesPay's cost rule rests on, and what every rank of a warm run pays
// once per assignAndBalance call whatever its share of the points.
func BenchmarkBuildCCTables(b *testing.B) {
	for _, k := range []int{32, 64, 128, 256, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			const dim = 3
			rng := rand.New(rand.NewSource(11))
			st := &state{dim: dim, k: k}
			st.centers = make([]float64, k*dim)
			for i := range st.centers {
				st.centers[i] = rng.Float64()
			}
			st.perCenter = make([]float64, k)
			st.buildCCTables() // allocates
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.buildCCTables()
			}
		})
	}
}

// BenchmarkAssignBoundsModes runs the full partition pipeline per bounds
// mode, so bound-maintenance overhead and skip savings are both visible.
// The d=16 arm is unstructured uniform data, the regime Elkan used to
// win: Hamerly's single lower bound stops skipping there, but since its
// scans evaluate eight centers at a time beyond geom.MaxDim it is level
// with Elkan's per-center bounds or ahead, where at d=2 those cost twice
// Hamerly's time (DESIGN.md, "Why nothing measured keeps the Elkan
// mode").
func BenchmarkAssignBoundsModes(b *testing.B) {
	for _, dim := range []int{2, 16} {
		rng := rand.New(rand.NewSource(42))
		ps := &geom.PointSet{Dim: dim, Coords: make([]float64, 20_000*dim)}
		for i := range ps.Coords {
			ps.Coords[i] = rng.Float64()
		}
		for _, bounds := range []BoundsKind{BoundsHamerly, BoundsElkan, BoundsNone} {
			b.Run(fmt.Sprintf("d=%d/%s", dim, bounds), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Bounds = bounds
				for i := 0; i < b.N; i++ {
					bkm := New(cfg)
					w := mpi.NewWorld(4)
					if _, err := partition.Run(w, ps, 16, bkm); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

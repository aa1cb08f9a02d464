package geographer

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"geographer/internal/mpi"
)

var allMethods = []string{MethodGeographer, MethodRCB, MethodRIB, MethodMultiJagged, MethodHSFC}

// checkAssignment verifies the basic partition contract: one block id
// in [0, k) per point.
func checkAssignment(t *testing.T, label string, blocks []int32, n, k int) {
	t.Helper()
	if len(blocks) != n {
		t.Fatalf("%s: %d assignments for %d points", label, len(blocks), n)
	}
	for i, b := range blocks {
		if b < 0 || int(b) >= k {
			t.Fatalf("%s: point %d in invalid block %d (k=%d)", label, i, b, k)
		}
	}
}

// TestDegenerateInputsAllMethods pins the currently-green edge cases of
// all five partitioners so they stay green: more blocks than points,
// more simulated ranks than points (empty ranks), all points
// coincident, and a single point.
func TestDegenerateInputsAllMethods(t *testing.T) {
	small := randomCoords(5, 2, 1)
	six := randomCoords(6, 2, 2)
	coincident := make([]float64, 20) // 10 identical 2D points at the origin
	single := []float64{0.5, 0.5}

	for _, m := range allMethods {
		t.Run(m, func(t *testing.T) {
			blocks, err := Partition(small, 2, nil, Options{K: 8, Method: m})
			if err != nil {
				t.Fatalf("k > n: %v", err)
			}
			checkAssignment(t, "k > n", blocks, 5, 8)

			blocks, err = Partition(six, 2, nil, Options{K: 2, Method: m, Processes: 16})
			if err != nil {
				t.Fatalf("Processes > n: %v", err)
			}
			checkAssignment(t, "Processes > n", blocks, 6, 2)

			blocks, err = Partition(coincident, 2, nil, Options{K: 3, Method: m})
			if err != nil {
				t.Fatalf("coincident points: %v", err)
			}
			checkAssignment(t, "coincident points", blocks, 10, 3)

			for _, k := range []int{1, 2} {
				blocks, err = Partition(single, 2, nil, Options{K: k, Method: m})
				if err != nil {
					t.Fatalf("single point k=%d: %v", k, err)
				}
				checkAssignment(t, "single point", blocks, 1, k)
			}
		})
	}
}

// TestPartitionRejectsEmptyPointSet: every method answers an empty
// point set with NewSession's error, the same on every call — not a
// rank abort naming whichever rank failed first, and not an empty
// assignment.
func TestPartitionRejectsEmptyPointSet(t *testing.T) {
	const want = "geographer: empty point set"
	for _, m := range allMethods {
		for call := 0; call < 2; call++ {
			blocks, err := Partition([]float64{}, 2, nil, Options{K: 4, Method: m})
			if err == nil || err.Error() != want || blocks != nil {
				t.Errorf("%s call %d: Partition = (%v, %v), want (nil, %q)", m, call, blocks, err, want)
			}
		}
	}
}

// TestEvaluateRejectsOutOfRangeBlocks is the regression test for the
// index-out-of-range panic in metrics.CommVolumes: an invalid block id
// in part must surface as an error from the facade, never a crash.
func TestEvaluateRejectsOutOfRangeBlocks(t *testing.T) {
	m, err := GenerateMesh(MeshDelaunay2D, 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, m.N())
	part[10] = 99 // >= k
	if _, err := Evaluate(m.XAdj, m.Adj, m.Coords, m.Dim, m.Weights, part, 4); err == nil {
		t.Error("block id 99 with k=4 accepted")
	}
	part[10] = -2
	if _, err := Evaluate(m.XAdj, m.Adj, m.Coords, m.Dim, m.Weights, part, 4); err == nil {
		t.Error("block id -2 accepted")
	}
	part[10] = 0
	if _, err := Evaluate(m.XAdj, m.Adj, m.Coords, m.Dim, m.Weights, part, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestSpMVCommTimeRejectsOutOfRangeBlocks: same regression for the SpMV
// benchmark facade.
func TestSpMVCommTimeRejectsOutOfRangeBlocks(t *testing.T) {
	m, err := GenerateMesh(MeshDelaunay2D, 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, m.N())
	part[0] = 7
	if _, _, err := SpMVCommTime(m.XAdj, m.Adj, part, 4, 2); err == nil {
		t.Error("block id 7 with k=4 accepted")
	}
	part[0] = -1
	if _, _, err := SpMVCommTime(m.XAdj, m.Adj, part, 4, 2); err == nil {
		t.Error("block id -1 accepted")
	}
	part[0] = 0
	if _, _, err := SpMVCommTime(m.XAdj, m.Adj, part, 0, 2); err == nil {
		t.Error("k=0 accepted")
	}
}

// malformedCSR lists CSR arrays that no graph reader may index: each
// row damages a copy of a valid mesh's xadj/adj.
var malformedCSR = []struct {
	name   string
	damage func(xadj []int64, adj []int32) ([]int64, []int32)
}{
	{"huge xadj entry", func(x []int64, a []int32) ([]int64, []int32) { x[5] = 1 << 40; return x, a }},
	{"xadj not monotone", func(x []int64, a []int32) ([]int64, []int32) { x[1] = 100 * int64(len(a)); return x, a }},
	{"neighbor id n", func(x []int64, a []int32) ([]int64, []int32) { a[0] = int32(len(x) - 1); return x, a }},
	{"negative neighbor id", func(x []int64, a []int32) ([]int64, []int32) { a[0] = -1; return x, a }},
	{"nil xadj", func(x []int64, a []int32) ([]int64, []int32) { return nil, a }},
}

// TestMalformedCSRRejected: every facade entry point that reads a
// caller's CSR graph returns an error for arrays it cannot read in
// bounds, instead of panicking (Evaluate, RefinePartition, Extrude) or
// reporting a rank's runtime panic as an abort (SpMVCommTime). Valid
// but unsorted adjacency keeps working.
func TestMalformedCSRRejected(t *testing.T) {
	m, err := GenerateMesh(MeshClimate, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	part := make([]int32, n)
	for v := range part {
		part[v] = int32(v % 2)
	}
	calls := []struct {
		name string
		call func(xadj []int64, adj []int32) error
	}{
		{"Evaluate", func(x []int64, a []int32) error {
			_, err := Evaluate(x, a, m.Coords, m.Dim, m.Weights, part, 2)
			return err
		}},
		{"RefinePartition", func(x []int64, a []int32) error {
			_, err := RefinePartition(x, a, m.Coords, m.Dim, m.Weights, append([]int32(nil), part...), 2, 0)
			return err
		}},
		{"SpMVCommTime", func(x []int64, a []int32) error {
			_, _, err := SpMVCommTime(x, a, part, 2, 1)
			return err
		}},
		{"Extrude", func(x []int64, a []int32) error {
			s := *m
			s.XAdj, s.Adj = x, a
			_, _, err := Extrude(&s, part, 0.1)
			return err
		}},
	}
	for _, c := range calls {
		for _, row := range malformedCSR {
			t.Run(c.name+"/"+row.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				x, a := row.damage(append([]int64(nil), m.XAdj...), append([]int32(nil), m.Adj...))
				err := c.call(x, a)
				if err == nil {
					t.Error("malformed CSR accepted")
				}
				if errors.Is(err, mpi.ErrBroken) {
					t.Errorf("reported as a rank abort: %v", err)
				}
			})
		}
		// Reversing every adjacency row keeps the graph valid CSR.
		adj := append([]int32(nil), m.Adj...)
		for v := 0; v < n; v++ {
			row := adj[m.XAdj[v]:m.XAdj[v+1]]
			for i, j := 0, len(row)-1; i < j; i, j = i+1, j-1 {
				row[i], row[j] = row[j], row[i]
			}
		}
		if err := c.call(m.XAdj, adj); err != nil {
			t.Errorf("%s rejected unsorted adjacency: %v", c.name, err)
		}
	}
	if _, _, err := Extrude(nil, part, 0.1); err == nil {
		t.Error("Extrude accepted a nil surface")
	}
	// The point arrays are checked against the graph's vertex count too.
	short := *m
	short.Weights = m.Weights[:n-1]
	if _, _, err := Extrude(&short, part, 0.1); err == nil {
		t.Error("Extrude accepted n-1 weights")
	}
	short = *m
	short.Coords = m.Coords[:len(m.Coords)-m.Dim]
	if _, _, err := Extrude(&short, part, 0.1); err == nil {
		t.Error("Extrude accepted n-1 points")
	}
	if _, err := RefinePartition(m.XAdj, m.Adj, m.Coords, m.Dim, m.Weights[:n-1], part, 2, 0); err == nil {
		t.Error("RefinePartition accepted n-1 weights")
	}
}

// TestRefinePartitionRejectsBadEpsilon: a NaN or negative ε used to
// refine silently at the default 0.03; zero still means the default.
func TestRefinePartitionRejectsBadEpsilon(t *testing.T) {
	m, err := GenerateMesh(MeshDelaunay2D, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, m.N())
	for v := range part {
		part[v] = int32(v % 2)
	}
	for _, eps := range []float64{math.NaN(), -1} {
		if _, err := RefinePartition(m.XAdj, m.Adj, m.Coords, m.Dim, m.Weights, part, 2, eps); err == nil {
			t.Errorf("epsilon=%g accepted", eps)
		}
	}
	if _, err := RefinePartition(m.XAdj, m.Adj, m.Coords, m.Dim, m.Weights, part, 2, 0); err != nil {
		t.Errorf("epsilon=0 (the default) rejected: %v", err)
	}
}

// TestRefinePartitionRejectsInvalidPoints: RefinePartition checks its
// points as Evaluate does. A NaN weight used to return moves = 0 with no
// error, a negative or infinite one to move vertices under a meaningless
// balance bound, and NaN, short or nil coordinates were accepted; each is
// now an error that leaves the partition untouched.
func TestRefinePartitionRejectsInvalidPoints(t *testing.T) {
	m, err := GenerateMesh(MeshDelaunay2D, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	part := make([]int32, n)
	for v := range part {
		part[v] = int32(v % 2)
	}
	unit := make([]float64, n)
	for i := range unit {
		unit[i] = 1
	}
	poison := func(base []float64, at int, v float64) []float64 {
		out := append([]float64(nil), base...)
		out[at] = v
		return out
	}
	for _, tc := range []struct {
		name            string
		coords, weights []float64
		nonFinite       bool
	}{
		{"NaN weight", m.Coords, poison(unit, 3, math.NaN()), true},
		{"negative weight", m.Coords, poison(unit, 3, -50), true},
		{"+Inf weight", m.Coords, poison(unit, 3, math.Inf(1)), true},
		{"NaN coordinate", poison(m.Coords, 5, math.NaN()), unit, true},
		{"short coordinates", m.Coords[:len(m.Coords)-m.Dim], nil, false},
		{"nil coordinates", nil, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := append([]int32(nil), part...)
			res, err := RefinePartition(m.XAdj, m.Adj, tc.coords, m.Dim, tc.weights, got, 2, 0)
			if err == nil {
				t.Fatalf("accepted: %+v", res)
			}
			if errors.Is(err, ErrNonFinite) != tc.nonFinite {
				t.Errorf("err %v: errors.Is(ErrNonFinite) = %v, want %v", err, !tc.nonFinite, tc.nonFinite)
			}
			for v := range got {
				if got[v] != part[v] {
					t.Fatalf("rejected call moved vertex %d", v)
				}
			}
		})
	}
	if _, err := RefinePartition(m.XAdj, m.Adj, m.Coords, m.Dim, unit, part, 2, 0); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

// TestExtrudeRejectsHostileSurface: on a 4-vertex square surface, a NaN
// or +Inf weight used to panic in makeslice, a NaN coordinate and a
// negative weight were extruded silently, and a layer count past the
// int32 vertex ids ran out of memory; each is now an error.
func TestExtrudeRejectsHostileSurface(t *testing.T) {
	square := func(coords, weights []float64) *MeshData {
		return &MeshData{
			Dim:     2,
			Coords:  coords,
			Weights: weights,
			XAdj:    []int64{0, 2, 4, 6, 8},
			Adj:     []int32{1, 3, 0, 2, 1, 3, 0, 2},
		}
	}
	corners := []float64{0, 0, 1, 0, 1, 1, 0, 1}
	part := []int32{0, 0, 1, 1}
	for _, tc := range []struct {
		name            string
		coords, weights []float64
		nonFinite       bool
	}{
		{"NaN weight", corners, []float64{math.NaN(), 2, 2, 2}, true},
		{"+Inf weight", corners, []float64{math.Inf(1), 2, 2, 2}, true},
		{"negative weight", corners, []float64{-5, 2, 2, 2}, true},
		{"NaN coordinate", []float64{math.NaN(), 0, 1, 0, 1, 1, 0, 1}, []float64{2, 2, 2, 2}, true},
		{"layers past int32", corners, []float64{1e12, 2, 2, 2}, false},
		{"total layers past int32", corners, []float64{2e9, 2e9, 2, 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			vol, _, err := Extrude(square(tc.coords, tc.weights), part, 0.1)
			if err == nil {
				t.Fatalf("accepted: %d-vertex mesh", vol.N())
			}
			if errors.Is(err, ErrNonFinite) != tc.nonFinite {
				t.Errorf("err %v: errors.Is(ErrNonFinite) = %v, want %v", err, !tc.nonFinite, tc.nonFinite)
			}
		})
	}
	vol, lifted, err := Extrude(square(corners, []float64{2, 2, 2, 2}), part, 0.1)
	if err != nil {
		t.Fatalf("valid surface rejected: %v", err)
	}
	if vol.N() != 8 || len(lifted) != 8 {
		t.Errorf("valid surface: %d vertices, %d lifted blocks, want 8 and 8", vol.N(), len(lifted))
	}
}

// twoColumns is a 2-vertex surface with 2 and 3 layers: a 5-vertex volume.
func twoColumns() *MeshData {
	return &MeshData{Dim: 2, Coords: []float64{0, 0, 1, 0}, Weights: []float64{2, 3},
		XAdj: []int64{0, 1, 2}, Adj: []int32{1, 0}}
}

// TestExtrudeRejectsNonFiniteLayerHeight: a NaN height used to give every
// vertex a NaN depth and +Inf NaN and -Inf ones, with no error; both are
// now errors. Every other height ≤ 0, -Inf included, still means 0.01.
func TestExtrudeRejectsNonFiniteLayerHeight(t *testing.T) {
	part := []int32{0, 1}
	for _, h := range []float64{math.NaN(), math.Inf(1)} {
		if vol, _, err := Extrude(twoColumns(), part, h); err == nil {
			t.Errorf("layer height %g accepted: coordinates %v", h, vol.Coords)
		}
	}
	want, _, err := Extrude(twoColumns(), part, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{0, -1, math.Inf(-1)} {
		vol, _, err := Extrude(twoColumns(), part, h)
		if err != nil {
			t.Fatalf("layer height %g rejected: %v", h, err)
		}
		if !slices.Equal(vol.Coords, want.Coords) {
			t.Errorf("layer height %g: coordinates %v, want the 0.01 default's %v", h, vol.Coords, want.Coords)
		}
	}
}

// TestExtrudeRejectsNegativeBlockIDs: a negative surface block id used to
// be copied into every layer of its column.
func TestExtrudeRejectsNegativeBlockIDs(t *testing.T) {
	if _, lifted, err := Extrude(twoColumns(), []int32{0, -4}, 0.1); err == nil {
		t.Errorf("block id -4 accepted: lifted %v", lifted)
	}
	_, lifted, err := Extrude(twoColumns(), []int32{0, 1}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 0, 1, 1, 1}; !slices.Equal(lifted, want) {
		t.Errorf("lifted %v, want %v", lifted, want)
	}
}

// TestRenderSVGRejectsUndrawableInput: a NaN coordinate used to be
// written into a <circle> attribute, a trailing odd coordinate was
// dropped, out-of-range blocks left points undrawn, and k = 0 wrote an
// empty image; each is now an error, and no file is created.
func TestRenderSVGRejectsUndrawableInput(t *testing.T) {
	square := []float64{0, 0, 1, 0, 1, 1, 0, 1}
	for _, tc := range []struct {
		name      string
		coords    []float64
		part      []int32
		k         int
		nonFinite bool
	}{
		{"NaN coordinate", []float64{math.NaN(), 0, 1, 0, 1, 1, 0, 1}, []int32{0, 0, 1, 1}, 2, true},
		{"odd coordinate count", []float64{0, 0, 1, 0, 1}, []int32{0, 1}, 2, false},
		{"out-of-range blocks", square, []int32{0, 9, -1, 0}, 2, false},
		{"k = 0", square, []int32{0, 0, 0, 0}, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "p.svg")
			err := RenderSVG(path, tc.coords, tc.part, tc.k)
			if err == nil {
				t.Fatal("accepted")
			}
			if errors.Is(err, ErrNonFinite) != tc.nonFinite {
				t.Errorf("err %v: errors.Is(ErrNonFinite) = %v, want %v", err, !tc.nonFinite, tc.nonFinite)
			}
			if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
				t.Errorf("rejected call left a file behind (stat: %v)", statErr)
			}
		})
	}
}

// TestGenerateMeshRejectsNegativeSize: n = -1 used to panic in makeslice
// for every mesh kind.
func TestGenerateMeshRejectsNegativeSize(t *testing.T) {
	for _, kind := range []string{MeshDelaunay2D, MeshRefined, MeshBubbles, MeshAirfoil,
		MeshRGG, MeshClimate, MeshDelaunay3D, MeshTube3D} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", kind, r)
				}
			}()
			if _, err := GenerateMesh(kind, -1, 1); err == nil {
				t.Errorf("%s: n=-1 accepted", kind)
			}
		}()
	}
}

// TestOptionsValidation is the regression test for the silent
// misconfigurations: a negative Epsilon used to make every balance
// round futile, and bad TargetFractions silently skewed the targets.
func TestOptionsValidation(t *testing.T) {
	coords := randomCoords(200, 2, 5)
	cases := []struct {
		name string
		opts Options
	}{
		{"negative epsilon", Options{K: 4, Epsilon: -0.01}},
		{"NaN epsilon", Options{K: 2, Epsilon: math.NaN()}},
		{"negative processes", Options{K: 4, Processes: -2}},
		{"negative workers", Options{K: 2, Workers: -3}},
		{"fraction length", Options{K: 4, TargetFractions: []float64{0.5, 0.5}}},
		{"negative fraction", Options{K: 2, TargetFractions: []float64{1.5, -0.5}}},
		{"zero fraction", Options{K: 2, TargetFractions: []float64{1, 0}}},
		{"fractions not summing to 1", Options{K: 2, TargetFractions: []float64{0.9, 0.3}}},
		{"NaN fraction", Options{K: 2, TargetFractions: []float64{math.NaN(), 0.5}}},
	}
	for _, tc := range cases {
		if _, err := Partition(coords, 2, nil, tc.opts); err == nil {
			t.Errorf("%s accepted by Partition", tc.name)
		}
		prev := make([]int32, 200)
		if _, err := Repartition(coords, 2, nil, prev, tc.opts); err == nil {
			t.Errorf("%s accepted by Repartition", tc.name)
		}
		if s, err := NewSession(coords, 2, nil, tc.opts); err == nil {
			s.Close()
			t.Errorf("%s accepted by NewSession", tc.name)
		}
	}
	// The validation must not reject valid settings.
	if _, err := Partition(coords, 2, nil, Options{K: 2, TargetFractions: []float64{0.7, 0.3}}); err != nil {
		t.Errorf("valid fractions rejected: %v", err)
	}
}

// TestRepartitionFacade drives the public warm-start API end to end on
// a mesh with evolving weights.
func TestRepartitionFacade(t *testing.T) {
	m, err := GenerateMesh(MeshClimate, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := Partition(m.Coords, m.Dim, m.Weights, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}

	// The load evolves: perturb the layer weights and repartition warm.
	perturbed := make([]float64, len(m.Weights))
	for i, w := range m.Weights {
		perturbed[i] = w * (1 + 0.3*math.Sin(m.Coords[2*i]*8))
	}
	res, err := Repartition(m.Coords, m.Dim, perturbed, blocks, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, "repartition", res.Blocks, m.N(), 8)
	if res.TotalWeight <= 0 {
		t.Errorf("total weight %g", res.TotalWeight)
	}
	if res.MigratedWeight < 0 || res.MigratedWeight > res.TotalWeight {
		t.Errorf("migrated weight %g of %g", res.MigratedWeight, res.TotalWeight)
	}
	if frac := res.MigratedWeight / res.TotalWeight; frac > 0.5 {
		t.Errorf("warm start migrated %.0f%% of the weight", 100*frac)
	}
	q, err := Evaluate(m.XAdj, m.Adj, m.Coords, m.Dim, perturbed, res.Blocks, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q.Imbalance > 0.2 {
		t.Errorf("imbalance %.4f", q.Imbalance)
	}

	// Determinism across Processes/Workers: same input + same prevAssign
	// produce a bit-identical partition.
	for _, procs := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2} {
			again, err := Repartition(m.Coords, m.Dim, perturbed, blocks, Options{K: 8, Processes: procs, Workers: workers})
			if err != nil {
				t.Fatalf("p=%d w=%d: %v", procs, workers, err)
			}
			for i := range res.Blocks {
				if res.Blocks[i] != again.Blocks[i] {
					t.Fatalf("p=%d w=%d: diverges at point %d", procs, workers, i)
				}
			}
		}
	}

	// Error paths.
	if _, err := Repartition(m.Coords, m.Dim, perturbed, blocks[:10], Options{K: 8}); err == nil {
		t.Error("short prevAssign accepted")
	}
	bad := append([]int32(nil), blocks...)
	bad[0] = 42
	if _, err := Repartition(m.Coords, m.Dim, perturbed, bad, Options{K: 8}); err == nil {
		t.Error("out-of-range prevAssign accepted")
	}
	if _, err := Repartition(m.Coords, m.Dim, perturbed, blocks, Options{K: 8, Method: MethodRCB}); err == nil {
		t.Error("non-geographer warm start accepted")
	}
}

// TestNonFiniteInputRejected pins the one behaviour of every entry point
// that takes coordinates or weights on values the partitioners cannot
// use: ErrNonFinite, nothing changed, the session still usable.
func TestNonFiniteInputRejected(t *testing.T) {
	const n = 200
	good := randomCoords(n, 2, 3)
	unit := make([]float64, n)
	for i := range unit {
		unit[i] = 1
	}
	poison := func(base []float64, at int, v float64) []float64 {
		out := append([]float64(nil), base...)
		out[at] = v
		return out
	}
	cases := []struct {
		name                  string
		badCoords, badWeights []float64 // nil: the valid ones
	}{
		{"NaN coordinate", poison(good, 7, math.NaN()), nil},
		{"+Inf coordinate", poison(good, 2*n-1, math.Inf(1)), nil},
		{"NaN weight", nil, poison(unit, 0, math.NaN())},
		{"+Inf weight", nil, poison(unit, n-1, math.Inf(1))},
		{"negative weight", nil, poison(unit, 5, -1)},
	}
	opts := Options{K: 4, Processes: 2}

	s, err := NewSession(good, 2, unit, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before, err := s.Partition()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coords, weights := good, unit
			if tc.badCoords != nil {
				coords = tc.badCoords
				if err := s.UpdateCoords(coords); !errors.Is(err, ErrNonFinite) {
					t.Errorf("UpdateCoords: %v, want ErrNonFinite", err)
				}
			}
			if tc.badWeights != nil {
				weights = tc.badWeights
				if err := s.UpdateWeights(weights); !errors.Is(err, ErrNonFinite) {
					t.Errorf("UpdateWeights: %v, want ErrNonFinite", err)
				}
			}
			if _, err := Partition(coords, 2, weights, opts); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Partition: %v, want ErrNonFinite", err)
			}
			if _, err := Repartition(coords, 2, weights, before, opts); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Repartition: %v, want ErrNonFinite", err)
			}
			if _, err := NewSession(coords, 2, weights, opts); !errors.Is(err, ErrNonFinite) {
				t.Errorf("NewSession: %v, want ErrNonFinite", err)
			}
		})
	}

	// Every rejected update left the session untouched: a warm step from
	// here equals the one a session that never saw them takes.
	clean, err := NewSession(good, 2, unit, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if _, err := clean.Partition(); err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{s, clean} {
		if err := sess.UpdateWeights(poison(unit, 3, 5)); err != nil {
			t.Fatalf("valid update after rejections: %v", err)
		}
	}
	got, err := s.Repartition()
	if err != nil {
		t.Fatalf("Repartition after rejections: %v", err)
	}
	want, err := clean.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Blocks {
		if got.Blocks[i] != want.Blocks[i] {
			t.Fatalf("point %d: block %d after rejected updates, %d without", i, got.Blocks[i], want.Blocks[i])
		}
	}
}

// TestInputsNeverWritten: the one-shot entry points hand the caller's
// slices to the rank scatter, and every partitioner adopts and mutates
// the columns it is given (the sampled shuffle rotates them in place and
// back, the sort permutes them), so the scatter must transpose into
// rank-owned columns and never alias the input. Partition with each
// method and Repartition run twice at once on the same slices: both
// must return the serial run's blocks, and coordinates, weights and the
// previous assignment must stay bit-identical to clones taken before.
// A call writing the caller's memory, even to restore it, is a data
// race under -race.
func TestInputsNeverWritten(t *testing.T) {
	type call struct {
		name string
		dim  int
		run  func(coords, weights []float64, prev []int32) ([]int32, error)
	}
	partitionWith := func(method string) func(coords, weights []float64, _ []int32) ([]int32, error) {
		return func(coords, weights []float64, _ []int32) ([]int32, error) {
			return Partition(coords, len(coords)/600, weights, Options{K: 6, Method: method, Processes: 3})
		}
	}
	repartition := func(coords, weights []float64, prev []int32) ([]int32, error) {
		res, err := Repartition(coords, len(coords)/600, weights, prev, Options{K: 6, Processes: 3})
		return res.Blocks, err
	}
	var calls []call
	for _, dim := range []int{2, 3} {
		for _, m := range allMethods {
			calls = append(calls, call{m, dim, partitionWith(m)})
		}
		calls = append(calls, call{"repartition", dim, repartition})
	}
	calls = append(calls, call{MethodGeographer, 16, partitionWith(MethodGeographer)}, call{"repartition", 16, repartition})

	for _, tc := range calls {
		t.Run(fmt.Sprintf("%s/d=%d", tc.name, tc.dim), func(t *testing.T) {
			const n = 600
			coords := randomCoords(n, tc.dim, int64(tc.dim))
			weights := make([]float64, n)
			prev := make([]int32, n)
			for i := range weights {
				weights[i] = 1 + float64(i%7)/3
				prev[i] = int32(i % 6)
			}
			wantC, wantW, wantP := slices.Clone(coords), slices.Clone(weights), slices.Clone(prev)
			serial, err := tc.run(slices.Clone(coords), slices.Clone(weights), slices.Clone(prev))
			if err != nil {
				t.Fatal(err)
			}
			var got [2][]int32
			var errs [2]error
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = tc.run(coords, weights, prev)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !slices.Equal(got[i], serial) {
					t.Errorf("concurrent call %d returned other blocks than the serial call", i)
				}
			}
			same := func(a, b []float64) bool {
				return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
			}
			if !same(coords, wantC) {
				t.Error("coordinates changed")
			}
			if !same(weights, wantW) {
				t.Error("weights changed")
			}
			if !slices.Equal(prev, wantP) {
				t.Error("previous assignment changed")
			}
		})
	}
}

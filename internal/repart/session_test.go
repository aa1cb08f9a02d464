package repart

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mesh"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// sessionTestMesh builds a small refined mesh with strictly positive,
// spatially correlated weights at phase t (the stream experiment's
// perturbation shape).
func sessionTestMesh(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.GenRefinedTri(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testWeights(m *mesh.Mesh, t int) []float64 {
	ps := m.Points
	out := make([]float64, ps.Len())
	for i := range out {
		x := ps.Coords[i*ps.Dim]
		y := ps.Coords[i*ps.Dim+1]
		out[i] = ps.W(i) * (1 + 0.4*math.Sin(0.08*x+0.05*y+0.9*float64(t)))
	}
	return out
}

// TestSessionMatchesOneShotChain is the differential pin of the session
// subsystem: a T-step session chain (one ingest, warm steps on resident
// state with in-place weight updates) must produce bit-identical
// partitions — and identical migration stats — to the equivalent chain
// of one-shot Repartition calls that re-ingests every step.
func TestSessionMatchesOneShotChain(t *testing.T) {
	m := sessionTestMesh(t, 2500)
	const k, p, steps = 8, 4, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1

	ps0 := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
	sess, err := NewSession(mpi.NewWorld(p), ps0.Clone(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	initSess, err := sess.Partition()
	if err != nil {
		t.Fatal(err)
	}

	// The session's cold partition must equal the one-shot cold path.
	initOne, err := partition.Run(mpi.NewWorld(p), ps0, k, core.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := range initOne.Assign {
		if initSess.Assign[i] != initOne.Assign[i] {
			t.Fatalf("cold partition diverged at point %d: session %d vs one-shot %d", i, initSess.Assign[i], initOne.Assign[i])
		}
	}

	prev := initOne.Assign
	for step := 1; step <= steps; step++ {
		wt := testWeights(m, step)
		if err := sess.UpdateWeights(wt); err != nil {
			t.Fatal(err)
		}
		pSess, stSess, err := sess.Repartition()
		if err != nil {
			t.Fatalf("session step %d: %v", step, err)
		}
		if stSess.IngestSeconds != 0 {
			t.Errorf("step %d: session warm step reports ingest time %g, want 0 (ingest happens once at NewSession)", step, stSess.IngestSeconds)
		}

		ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: wt}
		pOne, stOne, err := Repartition(mpi.NewWorld(p), ps, prev, k, cfg)
		if err != nil {
			t.Fatalf("one-shot step %d: %v", step, err)
		}
		for i := range pOne.Assign {
			if pSess.Assign[i] != pOne.Assign[i] {
				t.Fatalf("step %d diverged at point %d: session %d vs one-shot %d", step, i, pSess.Assign[i], pOne.Assign[i])
			}
		}
		if stSess.MigratedWeight != stOne.MigratedWeight || stSess.MigratedPoints != stOne.MigratedPoints {
			t.Fatalf("step %d stats diverged: session (%g, %d) vs one-shot (%g, %d)",
				step, stSess.MigratedWeight, stSess.MigratedPoints, stOne.MigratedWeight, stOne.MigratedPoints)
		}
		prev = pOne.Assign
	}
}

// TestSessionUpdateCoords pins coordinate deltas: after UpdateCoords
// the session's warm step must match a one-shot Repartition on the
// moved points.
func TestSessionUpdateCoords(t *testing.T) {
	m := sessionTestMesh(t, 1500)
	const k, p = 8, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1

	ps0 := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
	sess, err := NewSession(mpi.NewWorld(p), ps0.Clone(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	initial, err := sess.Partition()
	if err != nil {
		t.Fatal(err)
	}

	// Drift every point a little (points moved, identity preserved).
	moved := append([]float64(nil), m.Points.Coords...)
	for i := range moved {
		moved[i] += 0.01 * math.Sin(float64(i))
	}
	if err := sess.UpdateCoords(moved); err != nil {
		t.Fatal(err)
	}
	pSess, _, err := sess.Repartition()
	if err != nil {
		t.Fatal(err)
	}

	psMoved := &geom.PointSet{Dim: m.Points.Dim, Coords: moved, Weight: ps0.Weight}
	pOne, _, err := Repartition(mpi.NewWorld(p), psMoved, initial.Assign, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pOne.Assign {
		if pSess.Assign[i] != pOne.Assign[i] {
			t.Fatalf("after UpdateCoords, point %d: session %d vs one-shot %d", i, pSess.Assign[i], pOne.Assign[i])
		}
	}
}

// TestSessionLifecycle covers the error contract: repartitioning
// without a seed partition, bad delta shapes, and use after Close.
func TestSessionLifecycle(t *testing.T) {
	m := sessionTestMesh(t, 600)
	const k, p = 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords}

	if _, err := NewSession(mpi.NewWorld(p), &geom.PointSet{Dim: 2}, k, cfg); err == nil {
		t.Error("NewSession accepted an empty point set")
	}
	if _, err := NewSession(mpi.NewWorld(p), ps.Clone(), ps.Len()+1, cfg); err == nil {
		t.Error("NewSession accepted more blocks than points")
	}

	sess, err := NewSession(mpi.NewWorld(p), ps.Clone(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Blocks() != nil {
		t.Error("Blocks() non-nil before any partition")
	}
	if _, _, err := sess.Repartition(); err == nil {
		t.Error("Repartition succeeded without a previous partition")
	}
	if err := sess.SetPartition(make([]int32, 3)); err == nil {
		t.Error("SetPartition accepted a wrong-length assignment")
	}
	if _, err := sess.Partition(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Blocks(); len(got) != ps.Len() {
		t.Fatalf("Blocks() length %d, want %d", len(got), ps.Len())
	}

	if err := sess.UpdateWeights(make([]float64, 3)); err == nil {
		t.Error("UpdateWeights accepted a wrong-length vector")
	}
	if err := sess.UpdateWeights([]float64{}); err == nil {
		t.Error("UpdateWeights accepted an empty non-nil vector for a non-empty set")
	}
	bad := make([]float64, ps.Len())
	bad[7] = -1
	if err := sess.UpdateWeights(bad); err == nil {
		t.Error("UpdateWeights accepted a negative weight")
	}
	if err := sess.UpdateCoords(make([]float64, 3)); err == nil {
		t.Error("UpdateCoords accepted a wrong-length slice")
	}
	// A failed update must not corrupt the session: a warm step still runs.
	if _, _, err := sess.Repartition(); err != nil {
		t.Fatalf("Repartition after rejected updates: %v", err)
	}

	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := sess.Repartition(); !errors.Is(err, ErrClosed) {
		t.Errorf("Repartition after Close: got %v, want ErrClosed", err)
	}
	if _, err := sess.Partition(); !errors.Is(err, ErrClosed) {
		t.Errorf("Partition after Close: got %v, want ErrClosed", err)
	}
	if err := sess.UpdateWeights(nil); !errors.Is(err, ErrClosed) {
		t.Errorf("UpdateWeights after Close: got %v, want ErrClosed", err)
	}
	if err := sess.UpdateCoords(make([]float64, ps.Len()*2)); !errors.Is(err, ErrClosed) {
		t.Errorf("UpdateCoords after Close: got %v, want ErrClosed", err)
	}
	if err := sess.SetPartition(make([]int32, ps.Len())); !errors.Is(err, ErrClosed) {
		t.Errorf("SetPartition after Close: got %v, want ErrClosed", err)
	}
	if sess.Blocks() != nil {
		t.Error("Blocks() non-nil after Close")
	}
}

// TestRepartitionIfAbove covers the imbalance-threshold trigger: skip
// below eps (partition untouched, deltas still pending), act above it
// (result identical to an unconditional Repartition over the same
// inputs), and reject invalid thresholds.
func TestRepartitionIfAbove(t *testing.T) {
	m := sessionTestMesh(t, 1500)
	const k, p = 8, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	newSess := func() *Session {
		t.Helper()
		ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
		sess, err := NewSession(mpi.NewWorld(p), ps, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Partition(); err != nil {
			t.Fatal(err)
		}
		return sess
	}

	sess := newSess()
	defer sess.Close()
	if _, _, _, err := sess.RepartitionIfAbove(-0.1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, _, _, err := sess.RepartitionIfAbove(math.NaN()); err == nil {
		t.Error("NaN eps accepted")
	}

	// The fresh cold partition is within the configured epsilon, so a
	// loose threshold must skip — and leave the partition in place.
	before := sess.Blocks()
	_, st, acted, err := sess.RepartitionIfAbove(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if acted {
		t.Fatalf("repartitioned at imbalance %g despite eps=0.5", st.PreImbalance)
	}
	if st.PreImbalance <= 0 {
		t.Errorf("skip path did not report the measured imbalance (got %g)", st.PreImbalance)
	}
	after := sess.Blocks()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("skipped step changed the installed partition")
		}
	}

	// Skew the weights until the old partition is badly imbalanced: the
	// trigger must fire and reproduce the unconditional step exactly.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Points.Len(); i++ {
		x := m.Points.Coords[i*m.Points.Dim]
		xmin = math.Min(xmin, x)
		xmax = math.Max(xmax, x)
	}
	skewed := make([]float64, m.Points.Len())
	for i := range skewed {
		x := m.Points.Coords[i*m.Points.Dim]
		skewed[i] = 1
		if x < xmin+(xmax-xmin)/4 {
			skewed[i] = 10 // one corner carries most of the load
		}
	}
	if err := sess.UpdateWeights(skewed); err != nil {
		t.Fatal(err)
	}
	imb, err := sess.Imbalance()
	if err != nil {
		t.Fatal(err)
	}
	if imb <= 0.1 {
		t.Fatalf("skewed weights produced imbalance %g, test needs > 0.1", imb)
	}
	pIf, stIf, acted, err := sess.RepartitionIfAbove(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !acted {
		t.Fatalf("did not repartition at imbalance %g > 0.1", stIf.PreImbalance)
	}
	if stIf.PreImbalance != imb {
		t.Errorf("PreImbalance %g != measured %g", stIf.PreImbalance, imb)
	}

	ref := newSess()
	defer ref.Close()
	if err := ref.UpdateWeights(skewed); err != nil {
		t.Fatal(err)
	}
	pRef, _, err := ref.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pRef.Assign {
		if pIf.Assign[i] != pRef.Assign[i] {
			t.Fatalf("threshold-triggered step diverged from unconditional step at point %d", i)
		}
	}
}

// imbalanceLoop is the ratio loop Session.Imbalance ran before it
// called partition.MaxLoadRatio, kept as the bit-level reference:
// max over the blocks with a positive target of fl(w/t − 1), from 0.
func imbalanceLoop(w, targets []float64) float64 {
	imb := 0.0
	for b, wb := range w {
		if targets[b] <= 0 {
			continue
		}
		if r := wb/targets[b] - 1; r > imb {
			imb = r
		}
	}
	return imb
}

// TestSessionImbalanceMatchesLoop holds Session.Imbalance, which reports
// max(0, MaxLoadRatio − 1), to the bits of imbalanceLoop: on the cold
// partition, on random partitions under random weights, and on
// partitions that meet every target exactly (imbalance 0), with uniform
// and with heterogeneous targets.
func TestSessionImbalanceMatchesLoop(t *testing.T) {
	m := sessionTestMesh(t, 800)
	n := m.Points.Len() / 40 * 40
	ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords[:n*m.Points.Dim]}
	for _, tc := range []struct {
		fractions []float64
		exact     bool // every target is a float-exact share of n
	}{
		{nil, true},
		{[]float64{0.5, 0.25, 0.125, 0.125}, true},
		{[]float64{0.4, 0.3, 0.2, 0.1}, false},
	} {
		fractions := tc.fractions
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		cfg.TargetFractions = fractions
		const k = 4
		sess, err := NewSession(mpi.NewWorld(2), ps.Clone(), k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string) {
			t.Helper()
			got, err := sess.Imbalance()
			if err != nil {
				t.Fatal(err)
			}
			w := metrics.BlockWeights(sess.ps, sess.prev, k)
			total := 0.0
			for _, x := range w {
				total += x
			}
			targets, err := partition.Targets(total, k, fractions)
			if err != nil {
				t.Fatal(err)
			}
			if want := imbalanceLoop(w, targets); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fractions %v, %s: Imbalance = %v, loop = %v", fractions, label, got, want)
			}
		}
		if _, err := sess.Partition(); err != nil {
			t.Fatal(err)
		}
		check("cold partition")

		rng := rand.New(rand.NewSource(7))
		part := make([]int32, n)
		weights := make([]float64, n)
		for trial := 0; trial < 50; trial++ {
			for i := range part {
				part[i] = int32(rng.Intn(k))
				weights[i] = rng.ExpFloat64()
			}
			if err := sess.SetPartition(part); err != nil {
				t.Fatal(err)
			}
			if err := sess.UpdateWeights(weights); err != nil {
				t.Fatal(err)
			}
			check("random partition")
		}

		// Unit weights, and block b holds its target's share of the n
		// points: exactly on target when the shares are powers of two,
		// within a rounding of it otherwise.
		if err := sess.UpdateWeights(nil); err != nil {
			t.Fatal(err)
		}
		share := []float64{0.25, 0.25, 0.25, 0.25}
		if fractions != nil {
			share = fractions
		}
		i := 0
		for b, f := range share {
			for end := i + int(math.Round(f*float64(n))); i < end; i++ {
				part[i] = int32(b)
			}
		}
		if err := sess.SetPartition(part); err != nil {
			t.Fatal(err)
		}
		if i != n {
			t.Fatalf("fractions %v: shares cover %d of %d points", fractions, i, n)
		}
		check("partition on target")
		if got, _ := sess.Imbalance(); tc.exact {
			if got != 0 {
				t.Errorf("fractions %v: a partition on its targets reads imbalance %v, want 0", fractions, got)
			}
		}
		sess.Close()
	}
}

// TestSessionDeltaCoalescing pins the lazy delta application: any
// number of UpdateWeights/UpdateCoords calls between two steps must
// behave exactly like the last one applied eagerly — including a
// coordinate delta that sat pending across a skipped
// RepartitionIfAbove.
func TestSessionDeltaCoalescing(t *testing.T) {
	m := sessionTestMesh(t, 1500)
	const k, p = 8, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps0 := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
	sess, err := NewSession(mpi.NewWorld(p), ps0.Clone(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	initial, err := sess.Partition()
	if err != nil {
		t.Fatal(err)
	}

	// Three queued weight updates and two queued coordinate updates; only
	// the last of each may matter.
	moved := append([]float64(nil), m.Points.Coords...)
	for i := range moved {
		moved[i] += 0.01 * math.Sin(float64(i))
	}
	for _, wt := range [][]float64{testWeights(m, 1), testWeights(m, 2), testWeights(m, 3)} {
		if err := sess.UpdateWeights(wt); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.UpdateCoords(m.Points.Coords); err != nil {
		t.Fatal(err)
	}
	if err := sess.UpdateCoords(moved); err != nil {
		t.Fatal(err)
	}
	// A skipped threshold step must not lose the pending deltas.
	if _, _, acted, err := sess.RepartitionIfAbove(1e9); err != nil || acted {
		t.Fatalf("expected skip, got acted=%v err=%v", acted, err)
	}
	pSess, _, err := sess.Repartition()
	if err != nil {
		t.Fatal(err)
	}

	psRef := &geom.PointSet{Dim: m.Points.Dim, Coords: moved, Weight: testWeights(m, 3)}
	pOne, _, err := Repartition(mpi.NewWorld(p), psRef, initial.Assign, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pOne.Assign {
		if pSess.Assign[i] != pOne.Assign[i] {
			t.Fatalf("coalesced deltas diverged from eager application at point %d", i)
		}
	}
}

// TestSessionScratchResetExact pins the resident-state reset: running
// the same warm step (same previous assignment, same weights) over and
// over on one session must reproduce a bit-identical partition every
// time — the reused per-point scratch starts each run exactly like a
// fresh allocation would.
func TestSessionScratchResetExact(t *testing.T) {
	m := sessionTestMesh(t, 1200)
	const k, p = 8, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
	sess, err := NewSession(mpi.NewWorld(p), ps, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	initial, err := sess.Partition()
	if err != nil {
		t.Fatal(err)
	}
	stepFromInitial := func() (partition.P, Stats, error) {
		if err := sess.SetPartition(initial.Assign); err != nil {
			return partition.P{}, Stats{}, err
		}
		return sess.Repartition()
	}
	first, firstStats, err := stepFromInitial()
	if err != nil {
		t.Fatal(err)
	}
	for repeat := 0; repeat < 3; repeat++ {
		next, st, err := stepFromInitial()
		if err != nil {
			t.Fatal(err)
		}
		for i := range next.Assign {
			if next.Assign[i] != first.Assign[i] {
				t.Fatalf("repeat %d: partition changed at point %d under identical input", repeat, i)
			}
		}
		if st.MigratedWeight != firstStats.MigratedWeight || st.MigratedPoints != firstStats.MigratedPoints {
			t.Fatalf("repeat %d: migration stats changed under identical input", repeat)
		}
	}
}

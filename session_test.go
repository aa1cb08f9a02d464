package geographer_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"geographer"
)

// perturb builds strictly positive weights at timestep t (the stream
// experiment's spatial-wave shape) for a 2D mesh.
func perturb(m *geographer.MeshData, t int) []float64 {
	out := make([]float64, m.N())
	for i := range out {
		x := m.Coords[i*m.Dim]
		y := m.Coords[i*m.Dim+1]
		base := 1.0
		if m.Weights != nil {
			base = m.Weights[i]
		}
		out[i] = base * (1 + 0.4*math.Sin(0.08*x+0.05*y+0.9*float64(t)))
	}
	return out
}

// TestSessionMatchesOneShotChain is the facade-level differential pin
// of the acceptance criterion: a Session chain (one ingest, T warm
// steps) must be bit-identical, step by step, to the equivalent chain
// of one-shot Partition + Repartition calls.
func TestSessionMatchesOneShotChain(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshClimate, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 8, Processes: 4}
	const steps = 3

	s, err := geographer.NewSession(m.Coords, m.Dim, m.Weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sessBlocks, err := s.Partition()
	if err != nil {
		t.Fatal(err)
	}
	oneBlocks, err := geographer.Partition(m.Coords, m.Dim, m.Weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oneBlocks {
		if sessBlocks[i] != oneBlocks[i] {
			t.Fatalf("cold partition diverged at point %d: session %d vs one-shot %d", i, sessBlocks[i], oneBlocks[i])
		}
	}

	prev := oneBlocks
	for step := 1; step <= steps; step++ {
		wt := perturb(m, step)
		if err := s.UpdateWeights(wt); err != nil {
			t.Fatal(err)
		}
		sres, err := s.Repartition()
		if err != nil {
			t.Fatalf("session step %d: %v", step, err)
		}
		ores, err := geographer.Repartition(m.Coords, m.Dim, wt, prev, opts)
		if err != nil {
			t.Fatalf("one-shot step %d: %v", step, err)
		}
		for i := range ores.Blocks {
			if sres.Blocks[i] != ores.Blocks[i] {
				t.Fatalf("step %d diverged at point %d: session %d vs one-shot %d", step, i, sres.Blocks[i], ores.Blocks[i])
			}
		}
		if sres.MigratedWeight != ores.MigratedWeight ||
			sres.MigratedPoints != ores.MigratedPoints ||
			sres.TotalWeight != ores.TotalWeight {
			t.Fatalf("step %d migration stats diverged: session %+v vs one-shot %+v", step, sres, ores)
		}
		prev = ores.Blocks
	}
}

// TestSessionLifecycleErrors covers the facade error contract of the
// Session: construction validation, delta shape validation, and use
// after Close.
func TestSessionLifecycleErrors(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshDelaunay2D, 800, 3)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := geographer.NewSession(m.Coords, m.Dim, nil, geographer.Options{K: 4, Method: geographer.MethodRCB}); err == nil {
		t.Error("NewSession accepted a non-geographer method")
	}
	if _, err := geographer.NewSession(m.Coords, m.Dim, nil, geographer.Options{K: 0}); err == nil {
		t.Error("NewSession accepted K=0")
	}
	if _, err := geographer.NewSession(nil, 2, nil, geographer.Options{K: 4}); err == nil {
		t.Error("NewSession accepted an empty point set")
	}
	if _, err := geographer.NewSession(m.Coords, m.Dim, make([]float64, 3), geographer.Options{K: 4}); err == nil {
		t.Error("NewSession accepted mismatched weights")
	}
	// Empty is not nil: like Partition and UpdateWeights, NewSession
	// reads a non-nil weight slice as one weight per point.
	if _, err := geographer.NewSession(m.Coords, m.Dim, []float64{}, geographer.Options{K: 4}); err == nil {
		t.Error("NewSession read empty weights as unit weights")
	}

	s, err := geographer.NewSession(m.Coords, m.Dim, nil, geographer.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != nil {
		t.Error("Blocks() non-nil before any partition")
	}
	if _, err := s.Repartition(); err == nil {
		t.Error("Repartition succeeded before Partition/SetPartition")
	}
	if _, err := s.Partition(); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateWeights(make([]float64, 5)); err == nil {
		t.Error("UpdateWeights accepted a wrong-length vector")
	}
	if err := s.UpdateCoords(make([]float64, 5)); err == nil {
		t.Error("UpdateCoords accepted a wrong-length slice")
	}
	if _, err := s.Repartition(); err != nil {
		t.Errorf("Repartition after rejected updates: %v", err)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Partition(); err == nil {
		t.Error("Partition succeeded after Close")
	}
	if _, err := s.Repartition(); err == nil {
		t.Error("Repartition succeeded after Close")
	}
	if err := s.UpdateWeights(nil); err == nil {
		t.Error("UpdateWeights succeeded after Close")
	}
	if err := s.UpdateCoords(m.Coords); err == nil {
		t.Error("UpdateCoords succeeded after Close")
	}
	if err := s.SetPartition(make([]int32, m.N())); err == nil {
		t.Error("SetPartition succeeded after Close")
	}
	if s.Blocks() != nil {
		t.Error("Blocks() non-nil after Close")
	}
}

// TestSessionCloseRace runs every Session verb from several goroutines
// while Close lands: each call returns nil or the facade's closed-session
// error (never a "repart:" error, never a panic), and once Close has
// returned every verb reports the closed error.
func TestSessionCloseRace(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshDelaunay2D, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 4, Processes: 2}
	gone, err := geographer.NewSession(m.Coords, m.Dim, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()
	_, errClosed := gone.Partition()
	if errClosed == nil {
		t.Fatal("Partition succeeded after Close")
	}

	s, err := geographer.NewSession(m.Coords, m.Dim, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := s.Partition()
	if err != nil {
		t.Fatal(err)
	}
	wt := perturb(m, 1)
	verbs := map[string]func() error{
		"Partition":   func() error { _, err := s.Partition(); return err },
		"Repartition": func() error { _, err := s.Repartition(); return err },
		"RepartitionIfAbove": func() error {
			_, _, err := s.RepartitionIfAbove(0)
			return err
		},
		"RepartitionWithRetry": func() error {
			_, _, err := s.RepartitionWithRetry(context.Background(), 0, geographer.RetryPolicy{})
			return err
		},
		"Imbalance":     func() error { _, err := s.Imbalance(); return err },
		"SetPartition":  func() error { return s.SetPartition(blocks) },
		"UpdateWeights": func() error { return s.UpdateWeights(wt) },
		"UpdateCoords":  func() error { return s.UpdateCoords(m.Coords) },
		"Checkpoint":    func() error { _, err := s.Checkpoint(); return err },
		"Blocks":        func() error { s.Blocks(); return nil },
		"IngestSeconds": func() error { s.IngestSeconds(); return nil },
	}
	check := func(name string, err error) {
		if err != nil && (!errors.Is(err, errClosed) || strings.HasPrefix(err.Error(), "repart:")) {
			t.Errorf("%s: %v (want nil or the closed-session error)", name, err)
		}
	}
	var wg sync.WaitGroup
	started := make(chan struct{}, len(verbs))
	for name, verb := range verbs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				check(name, verb())
				if i == 0 {
					started <- struct{}{}
				}
			}
		}()
	}
	<-started
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for name, verb := range verbs {
		err := verb()
		check(name, err)
		if err == nil && name != "Blocks" && name != "IngestSeconds" {
			t.Errorf("%s succeeded after Close", name)
		}
	}
}

// TestSessionSetPartition warm-starts a session from an externally
// computed partition and checks the result matches the one-shot
// Repartition from the same seed.
func TestSessionSetPartition(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshRefined, 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 8, Processes: 4}
	initial, err := geographer.Partition(m.Coords, m.Dim, m.Weights, opts)
	if err != nil {
		t.Fatal(err)
	}

	s, err := geographer.NewSession(m.Coords, m.Dim, m.Weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SetPartition(initial); err != nil {
		t.Fatal(err)
	}
	sres, err := s.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	ores, err := geographer.Repartition(m.Coords, m.Dim, m.Weights, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ores.Blocks {
		if sres.Blocks[i] != ores.Blocks[i] {
			t.Fatalf("point %d: session %d vs one-shot %d", i, sres.Blocks[i], ores.Blocks[i])
		}
	}
}

// TestSessionRepartitionIfAbove covers the facade threshold trigger:
// skip below eps, act above it, and surface the incremental
// observability fields on warm steps.
func TestSessionRepartitionIfAbove(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshClimate, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 8, Processes: 4}
	s, err := geographer.NewSession(m.Coords, m.Dim, m.Weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Partition(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := s.RepartitionIfAbove(-1); err == nil {
		t.Error("negative eps accepted")
	}

	// Fresh partition meets epsilon: a loose threshold skips, but still
	// reports the measured imbalance.
	res0, acted, err := s.RepartitionIfAbove(0.5)
	if err != nil || acted || res0.Blocks != nil {
		t.Fatalf("expected skip, got acted=%v res=%+v err=%v", acted, res0, err)
	}
	imb, err := s.Imbalance()
	if err != nil {
		t.Fatal(err)
	}
	if res0.PreImbalance != imb || imb <= 0 {
		t.Errorf("skip path PreImbalance %g, Imbalance() %g; want equal and > 0", res0.PreImbalance, imb)
	}

	// Heavy corner: the trigger fires and the result carries the
	// incremental counters.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	for i := 0; i < m.N(); i++ {
		x := m.Coords[i*m.Dim]
		xmin = math.Min(xmin, x)
		xmax = math.Max(xmax, x)
	}
	skew := make([]float64, m.N())
	for i := range skew {
		skew[i] = 1
		if m.Coords[i*m.Dim] < xmin+(xmax-xmin)/4 {
			skew[i] = 25
		}
	}
	if err := s.UpdateWeights(skew); err != nil {
		t.Fatal(err)
	}
	res, acted, err := s.RepartitionIfAbove(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !acted {
		t.Fatal("did not repartition under heavily skewed weights")
	}
	if len(res.Blocks) != m.N() {
		t.Fatalf("result holds %d blocks for %d points", len(res.Blocks), m.N())
	}
	if res.DistCalcs <= 0 || res.HamerlySkips <= 0 {
		t.Errorf("missing incremental counters: %+v", res)
	}
	if res.BoundaryFrac <= 0 || res.BoundaryFrac > 1 {
		t.Errorf("boundary fraction %g outside (0, 1]", res.BoundaryFrac)
	}

	// A second warm step right after must take the incremental fast
	// path and say so.
	res2, err := s.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Incremental {
		t.Error("second consecutive warm step did not report the incremental fast path")
	}
	if res2.BoundaryFrac >= 1 {
		t.Errorf("incremental step examined the full set (boundary fraction %g)", res2.BoundaryFrac)
	}
}

package geographer_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"geographer"
	"geographer/internal/mpi"
)

// warmFacadeSession builds a facade session, runs a cold partition and
// `warm` weight-perturbed warm steps. Two calls with the same arguments
// produce bit-identical sessions.
func warmFacadeSession(t *testing.T, m *geographer.MeshData, opts geographer.Options, warm int) *geographer.Session {
	t.Helper()
	s, err := geographer.NewSession(m.Coords, m.Dim, m.Weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Partition(); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= warm; step++ {
		if err := s.UpdateWeights(perturb(m, step)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Repartition(); err != nil {
			t.Fatalf("warm step %d: %v", step, err)
		}
	}
	return s
}

// TestSessionCheckpointRestore pins the facade checkpoint contract:
// restore with zero K/Processes (filled from the checkpoint header),
// then the restored session's next warm step is bit-identical to the
// uninterrupted session's, still on the incremental fast path.
func TestSessionCheckpointRestore(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshClimate, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 8, Processes: 4}

	orig := warmFacadeSession(t, m, opts, 2)
	defer orig.Close()
	ckpt, err := orig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := geographer.NewSessionFromCheckpoint(ckpt, geographer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	ob, rb := orig.Blocks(), restored.Blocks()
	if len(ob) != len(rb) {
		t.Fatalf("restored partition has %d points, want %d", len(rb), len(ob))
	}
	for i := range ob {
		if ob[i] != rb[i] {
			t.Fatalf("restored partition diverged at point %d: %d vs %d", i, rb[i], ob[i])
		}
	}

	wt := perturb(m, 3)
	if err := orig.UpdateWeights(wt); err != nil {
		t.Fatal(err)
	}
	if err := restored.UpdateWeights(wt); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Blocks {
		if want.Blocks[i] != got.Blocks[i] {
			t.Fatalf("restored chain diverged at point %d: %d vs %d", i, got.Blocks[i], want.Blocks[i])
		}
	}
	if !got.Incremental {
		t.Fatal("restored warm step did not take the incremental fast path")
	}
	if got.MigratedWeight != want.MigratedWeight || got.MigratedPoints != want.MigratedPoints {
		t.Fatalf("migration stats diverged: restored (%g, %d) vs original (%g, %d)",
			got.MigratedWeight, got.MigratedPoints, want.MigratedWeight, want.MigratedPoints)
	}
}

// TestSessionCheckpointRejects covers the facade restore error surface.
func TestSessionCheckpointRejects(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshDelaunay2D, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 4, Processes: 2}
	s := warmFacadeSession(t, m, opts, 1)
	defer s.Close()
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		opts geographer.Options
	}{
		{"wrong K", ckpt, geographer.Options{K: 5}},
		{"wrong Processes", ckpt, geographer.Options{Processes: 3}},
		{"wrong method", ckpt, geographer.Options{Method: geographer.MethodRCB}},
		{"truncated", ckpt[:len(ckpt)/2], geographer.Options{}},
		{"empty", nil, geographer.Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := geographer.NewSessionFromCheckpoint(tc.data, tc.opts); err == nil {
				t.Fatal("restore succeeded, want error")
			}
		})
	}

	s2 := warmFacadeSession(t, m, opts, 0)
	s2.Close()
	if _, err := s2.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a closed session succeeded")
	}
}

// TestSessionRepartitionWithRetryFacade exercises the facade retry
// driver on the fault-free path (fault-injected recovery is pinned at
// the repart layer, which rebuilds the worlds): the result matches
// RepartitionIfAbove exactly with Retries 0, and a cancelled context is
// surfaced as an error without sleeping.
func TestSessionRepartitionWithRetryFacade(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshClimate, 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 4, Processes: 2}

	ref := warmFacadeSession(t, m, opts, 1)
	defer ref.Close()
	if err := ref.UpdateWeights(perturb(m, 9)); err != nil {
		t.Fatal(err)
	}
	want, acted, err := ref.RepartitionIfAbove(0)
	if err != nil {
		t.Fatal(err)
	}
	if !acted {
		t.Fatal("reference step did not trigger")
	}

	vic := warmFacadeSession(t, m, opts, 1)
	defer vic.Close()
	if err := vic.UpdateWeights(perturb(m, 9)); err != nil {
		t.Fatal(err)
	}
	var sleeps []time.Duration
	pol := geographer.RetryPolicy{Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }}
	got, acted, err := vic.RepartitionWithRetry(context.Background(), 0, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !acted || got.Retries != 0 || len(sleeps) != 0 {
		t.Fatalf("fault-free retry: acted=%v Retries=%d sleeps=%v", acted, got.Retries, sleeps)
	}
	for i := range want.Blocks {
		if want.Blocks[i] != got.Blocks[i] {
			t.Fatalf("retry step diverged at point %d: %d vs %d", i, got.Blocks[i], want.Blocks[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := vic.UpdateWeights(perturb(m, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := vic.RepartitionWithRetry(ctx, 0, pol); err == nil {
		t.Fatal("cancelled context succeeded")
	}
	if len(sleeps) != 0 {
		t.Fatalf("cancelled context slept: %v", sleeps)
	}
}

// TestSessionRetryCancelledMidStepStillSteps: a session whose
// RepartitionWithRetry was cancelled while its step ran returns the
// abort (ErrBroken wrapping context.Canceled) and still steps without a
// retry driver — the cancelled step issued again through
// RepartitionIfAbove and the step after it are bit-identical to a twin
// that was never cancelled. The cancel fires from a timer at staggered
// fractions of the twin's step time; at least one must land mid-step,
// or the test checked nothing.
func TestSessionRetryCancelledMidStepStillSteps(t *testing.T) {
	m, err := geographer.GenerateMesh(geographer.MeshClimate, 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := geographer.Options{K: 4, Processes: 2}

	twin := warmFacadeSession(t, m, opts, 1)
	defer twin.Close()
	var want [2][]int32
	var took time.Duration
	for i := range want {
		if err := twin.UpdateWeights(perturb(m, 9+i)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, acted, err := twin.RepartitionIfAbove(0)
		if i == 0 {
			took = time.Since(start)
		}
		if err != nil || !acted {
			t.Fatalf("twin step %d: acted=%v err=%v", i, acted, err)
		}
		want[i] = res.Blocks
	}

	const delays = 16
	pol := geographer.RetryPolicy{Sleep: func(time.Duration) {}}
	broken := 0
	for d := 0; d < delays; d++ {
		vic := warmFacadeSession(t, m, opts, 1)
		if err := vic.UpdateWeights(perturb(m, 9)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(took*time.Duration(d)/(delays/2), cancel)
		res, acted, err := vic.RepartitionWithRetry(ctx, 0, pol)
		timer.Stop()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("delay %d: cancelled step: %v, want a context.Canceled", d, err)
			}
			if errors.Is(err, mpi.ErrBroken) {
				broken++
			}
			res, acted, err = vic.RepartitionIfAbove(0)
		}
		for i := range want {
			if i > 0 {
				if err := vic.UpdateWeights(perturb(m, 9+i)); err != nil {
					t.Fatal(err)
				}
				res, acted, err = vic.RepartitionIfAbove(0)
			}
			if err != nil || !acted {
				t.Fatalf("delay %d step %d: acted=%v err=%v", d, i, acted, err)
			}
			if !slices.Equal(res.Blocks, want[i]) {
				t.Fatalf("delay %d step %d differs from the twin's", d, i)
			}
		}
		vic.Close()
	}
	if broken == 0 {
		t.Fatalf("no cancel of %d, staggered over 0..2×%v, landed mid-step", delays, took)
	}
	t.Logf("%d of %d cancels aborted the step (twin step: %v)", broken, delays, took)
}

package repart

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mesh"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// buildWarmSession builds a session, installs a cold partition, and runs
// `warm` weight-perturbed warm steps — the standard fixture state for
// checkpoint and retry tests. Two calls with the same arguments produce
// bit-identical sessions (fresh worlds, same seeds).
func buildWarmSession(t testing.TB, m *mesh.Mesh, k, p, warm int, cfg core.Config) *Session {
	t.Helper()
	ps0 := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
	s, err := NewSession(mpi.NewWorld(p), ps0.Clone(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Partition(); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= warm; step++ {
		if err := s.UpdateWeights(testWeights(m, step)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Repartition(); err != nil {
			t.Fatalf("warm step %d: %v", step, err)
		}
	}
	return s
}

func assignEqual(t *testing.T, want, got partition.P, label string) {
	t.Helper()
	if len(want.Assign) != len(got.Assign) {
		t.Fatalf("%s: %d vs %d points", label, len(got.Assign), len(want.Assign))
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: diverged at point %d: %d vs %d", label, i, got.Assign[i], want.Assign[i])
		}
	}
}

// TestSessionCheckpointRoundTrip is the session-level restore contract:
// checkpoint a warm session, restore it onto a fresh world sized from
// ReadCheckpointInfo, and the restored session's next warm step is
// bit-identical to the step the uninterrupted session runs — including
// taking the incremental carried-bounds fast path.
func TestSessionCheckpointRoundTrip(t *testing.T) {
	m := sessionTestMesh(t, 2000)
	const k, p, warm = 8, 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1

	orig := buildWarmSession(t, m, k, p, warm, cfg)
	defer orig.Close()
	ckpt, err := orig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	info, err := ReadCheckpointInfo(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != SessionCheckpointVersion || info.K != k || info.P != p ||
		info.Dim != m.Points.Dim || info.N != m.Points.Len() {
		t.Fatalf("header %+v, want v%d k=%d p=%d dim=%d n=%d",
			info, SessionCheckpointVersion, k, p, m.Points.Dim, m.Points.Len())
	}

	restored, err := NewSessionFromCheckpoint(mpi.NewWorld(info.P), ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	// The installed partition travels with the checkpoint.
	ob, rb := orig.Blocks(), restored.Blocks()
	for i := range ob {
		if ob[i] != rb[i] {
			t.Fatalf("restored partition diverged at point %d: %d vs %d", i, rb[i], ob[i])
		}
	}

	wt := testWeights(m, warm+1)
	pWant, stWant, err := stepWith(orig, wt)
	if err != nil {
		t.Fatal(err)
	}
	pGot, stGot, err := stepWith(restored, wt)
	if err != nil {
		t.Fatal(err)
	}
	assignEqual(t, pWant, pGot, "restored chain")
	if !stGot.Info.CarriedBounds {
		t.Fatal("restored warm step did not take the carried-bounds fast path")
	}
	if stGot.MigratedWeight != stWant.MigratedWeight || stGot.MigratedPoints != stWant.MigratedPoints {
		t.Fatalf("migration stats diverged: restored (%g, %d) vs original (%g, %d)",
			stGot.MigratedWeight, stGot.MigratedPoints, stWant.MigratedWeight, stWant.MigratedPoints)
	}
}

func stepWith(s *Session, wt []float64) (partition.P, Stats, error) {
	if err := s.UpdateWeights(wt); err != nil {
		return partition.P{}, Stats{}, err
	}
	return s.Repartition()
}

// TestSessionCheckpointPendingDeltas: a checkpoint taken while weight
// and coordinate deltas are still queued (not yet flushed to the
// residents) restores them queued — the restored session's next step
// flushes and computes exactly what the original would have. With
// weights alone pending, the restore rebuilds columns that already hold
// the new weights under the old carry, and both steps must still take
// the incremental carried-bounds path.
func TestSessionCheckpointPendingDeltas(t *testing.T) {
	m := sessionTestMesh(t, 1200)
	const k, p = 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	moved := append([]float64(nil), m.Points.Coords...)
	for i := range moved {
		moved[i] += 0.001 * float64(i%7)
	}
	for _, tc := range []struct {
		name  string
		moved []float64 // queued coordinates; nil = none
	}{
		{"weights and coordinates", moved},
		{"weights only", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := buildWarmSession(t, m, k, p, 1, cfg)
			defer orig.Close()
			if err := orig.UpdateWeights(testWeights(m, 5)); err != nil {
				t.Fatal(err)
			}
			if tc.moved != nil {
				if err := orig.UpdateCoords(tc.moved); err != nil {
					t.Fatal(err)
				}
			}

			ckpt, err := orig.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewSessionFromCheckpoint(mpi.NewWorld(p), ckpt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			again, err := restored.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckpt, again) {
				t.Fatal("a restored session re-checkpoints to different bytes")
			}

			pWant, _, err := orig.Repartition()
			if err != nil {
				t.Fatal(err)
			}
			pGot, _, err := restored.Repartition()
			if err != nil {
				t.Fatal(err)
			}
			assignEqual(t, pWant, pGot, "pending-delta restore")
			if carried := tc.moved == nil; orig.LastInfo().CarriedBounds != carried || restored.LastInfo().CarriedBounds != carried {
				t.Fatalf("carried bounds: original %v, restored %v, want %v",
					orig.LastInfo().CarriedBounds, restored.LastInfo().CarriedBounds, carried)
			}
		})
	}
}

// TestSessionCheckpointErrors covers the rejection surface: corrupt and
// truncated blobs return the typed sentinels, a mismatched world size
// and an invalid configuration are refused, and a closed session cannot
// checkpoint.
func TestSessionCheckpointErrors(t *testing.T) {
	m := sessionTestMesh(t, 600)
	const k, p = 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	sess := buildWarmSession(t, m, k, p, 1, cfg)
	defer sess.Close()
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong world size", func(t *testing.T) {
		if _, err := NewSessionFromCheckpoint(mpi.NewWorld(p+1), ckpt, cfg); err == nil {
			t.Fatal("restore onto wrong-size world succeeded")
		}
	})
	t.Run("invalid config", func(t *testing.T) {
		bad := cfg
		bad.Epsilon = -0.01
		if _, err := NewSessionFromCheckpoint(mpi.NewWorld(p), ckpt, bad); err == nil {
			t.Fatal("restore with a negative epsilon succeeded")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(ckpt); cut += 97 {
			_, err := NewSessionFromCheckpoint(mpi.NewWorld(p), ckpt[:cut], cfg)
			if err == nil {
				t.Fatalf("truncation at %d restored successfully", cut)
			}
			if !errors.Is(err, core.ErrCheckpointCorrupt) && !errors.Is(err, core.ErrCheckpointVersion) {
				t.Fatalf("truncation at %d: untyped error %v", cut, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), ckpt...)
		bad[0] ^= 0xFF
		if _, err := ReadCheckpointInfo(bad); !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), ckpt...)
		bad[4] = 0xEE
		if _, err := ReadCheckpointInfo(bad); !errors.Is(err, core.ErrCheckpointVersion) {
			t.Fatalf("want ErrCheckpointVersion, got %v", err)
		}
	})
	t.Run("ranks disagree on the box", func(t *testing.T) {
		// Ranks whose boxes differ would disagree on the convergence
		// threshold and issue different collectives.
		_, _, recs := checkpointFields(t, ckpt)
		bad := append([]byte(nil), ckpt...)
		first := recs[1] + 4 + 4 + 8 // rank 1's magic, version, box length
		x := math.Float64frombits(binary.LittleEndian.Uint64(bad[first:]))
		binary.LittleEndian.PutUint64(bad[first:], math.Float64bits(x-1))
		if _, err := NewSessionFromCheckpoint(mpi.NewWorld(p), bad, cfg); !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
		}
	})
	t.Run("closed session", func(t *testing.T) {
		s2 := buildWarmSession(t, m, k, p, 0, cfg)
		s2.Close()
		if _, err := s2.Checkpoint(); !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	})
}

// TestRepartitionWithRetryRecovers is the headline fault-tolerance
// claim: a session whose world keeps dying to scheduled transient
// faults heals onto fresh worlds after each abort (rebuilt with the
// broken world's hooks, so the plan stays installed), retries, and converges
// to the exact partition a fault-free session computes.
func TestRepartitionWithRetryRecovers(t *testing.T) {
	m := sessionTestMesh(t, 1500)
	const k, p = 8, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	prep := func(s *Session) {
		t.Helper()
		if err := s.UpdateWeights(testWeights(m, 9)); err != nil {
			t.Fatal(err)
		}
	}

	// Fault-free reference step.
	ref := buildWarmSession(t, m, k, p, 2, cfg)
	defer ref.Close()
	prep(ref)
	pWant, stWant, acted, err := ref.RepartitionIfAbove(0)
	if err != nil {
		t.Fatal(err)
	}
	if !acted {
		t.Fatal("reference step did not trigger; perturb the weights harder")
	}

	// Victim: identical chain, checkpointed, then restored onto a world
	// with a transient fault armed to fire twice (initial attempt + first
	// retry), disarming for the second retry.
	vic := buildWarmSession(t, m, k, p, 2, cfg)
	defer vic.Close()
	prep(vic)
	ckpt, err := vic.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	plan := mpi.NewFaultPlan(mpi.Fault{Rank: 1, Episode: 2, Kind: mpi.FaultTransient, Fires: 2})
	fw := mpi.NewWorld(p)
	fw.SetHooks(plan)
	rest, err := NewSessionFromCheckpoint(fw, ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()

	var sleeps []time.Duration
	pol := RetryPolicy{
		MaxRetries:  5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	pGot, st, acted, err := rest.RepartitionWithRetry(context.Background(), 0, pol)
	if err != nil {
		t.Fatalf("retry driver failed: %v", err)
	}
	if !acted {
		t.Fatal("retry driver did not act")
	}
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if got := plan.Fired(); got != 2 {
		t.Fatalf("plan fired %d faults, want 2", got)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("backoff sleeps %v, want %v", sleeps, want)
	}
	assignEqual(t, pWant, pGot, "retried step vs fault-free")
	if st.MigratedWeight != stWant.MigratedWeight || st.MigratedPoints != stWant.MigratedPoints {
		t.Fatalf("migration stats diverged: retried (%g, %d) vs fault-free (%g, %d)",
			st.MigratedWeight, st.MigratedPoints, stWant.MigratedWeight, stWant.MigratedPoints)
	}
}

// TestRepartitionWithRetryExhausts: a permanent fault (FaultPanic fires
// on every world) burns through MaxRetries and surfaces the abort, with
// the faulting rank attributed.
func TestRepartitionWithRetryExhausts(t *testing.T) {
	m := sessionTestMesh(t, 800)
	const k, p = 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	sess := buildWarmSession(t, m, k, p, 1, cfg)
	defer sess.Close()
	if err := sess.UpdateWeights(testWeights(m, 9)); err != nil {
		t.Fatal(err)
	}
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	plan := mpi.NewFaultPlan(mpi.Fault{Rank: 0, Episode: 1, Kind: mpi.FaultPanic})
	fw := mpi.NewWorld(p)
	fw.SetHooks(plan)
	rest, err := NewSessionFromCheckpoint(fw, ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()

	var sleeps []time.Duration
	pol := RetryPolicy{
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	_, st, acted, err := rest.RepartitionWithRetry(context.Background(), 0, pol)
	if err == nil || acted {
		t.Fatalf("permanent fault succeeded (acted=%v)", acted)
	}
	if !errors.Is(err, mpi.ErrBroken) || !errors.Is(err, mpi.ErrInjected) {
		t.Fatalf("error %v does not wrap ErrBroken and ErrInjected", err)
	}
	var ae *mpi.AbortError
	if !errors.As(err, &ae) || ae.Rank != 0 {
		t.Fatalf("abort not attributed to rank 0: %v", err)
	}
	if st.Retries != 2 || len(sleeps) != 2 {
		t.Fatalf("Retries=%d sleeps=%v, want 2 retries", st.Retries, sleeps)
	}
	if got := plan.Fired(); got != 3 {
		t.Fatalf("plan fired %d faults, want 3 (initial + 2 retries)", got)
	}
}

// TestRepartitionWithRetryCtxCancelled: a cancelled context is terminal
// — the cancellation cause surfaces immediately, with no retries and no
// backoff sleeping. The context was dead before the step began, so no
// world broke: the error is the cause alone, not an mpi.ErrBroken, and
// the session still steps afterwards, to the partition of a twin that
// never saw the cancelled call.
func TestRepartitionWithRetryCtxCancelled(t *testing.T) {
	m := sessionTestMesh(t, 800)
	const k, p = 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	sess := buildWarmSession(t, m, k, p, 1, cfg)
	defer sess.Close()
	twin := buildWarmSession(t, m, k, p, 1, cfg)
	defer twin.Close()
	for _, s := range []*Session{sess, twin} {
		if err := s.UpdateWeights(testWeights(m, 9)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sleeps []time.Duration
	pol := RetryPolicy{Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }}
	_, st, acted, err := sess.RepartitionWithRetry(ctx, 0, pol)
	if err == nil || acted {
		t.Fatalf("cancelled context succeeded (acted=%v)", acted)
	}
	if !errors.Is(err, context.Canceled) || errors.Is(err, mpi.ErrBroken) {
		t.Fatalf("error %v: want context.Canceled, not ErrBroken", err)
	}
	if st.Retries != 0 || len(sleeps) != 0 {
		t.Fatalf("cancelled context retried: Retries=%d sleeps=%v", st.Retries, sleeps)
	}

	got, _, acted, err := sess.RepartitionWithRetry(context.Background(), 0, pol)
	if err != nil || !acted {
		t.Fatalf("step after the cancelled call: acted=%v err=%v", acted, err)
	}
	want, _, _, err := twin.RepartitionIfAbove(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Assign, want.Assign) {
		t.Fatal("step after the cancelled call differs from the twin's step")
	}
}

// TestRepartitionWithRetryCostsNoCheckpoint: a fault-free
// RepartitionWithRetry allocates what RepartitionIfAbove allocates on
// the same inputs — it keeps no insurance copy of the session. Twin
// sessions step one chain, one through each verb, with the same
// partitions; the smallest per-step excess of the retry's
// runtime.MemStats.TotalAlloc over the plain step's must stay below half
// a checkpoint, which a retry that encoded one up front exceeds.
func TestRepartitionWithRetryCostsNoCheckpoint(t *testing.T) {
	m := sessionTestMesh(t, 3000)
	const k, p, warm, steps = 8, 2, 2, 3
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	plain := buildWarmSession(t, m, k, p, warm, cfg)
	defer plain.Close()
	retry := buildWarmSession(t, m, k, p, warm, cfg)
	defer retry.Close()
	ckpt, err := retry.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	allocs := func(step func() (partition.P, Stats, bool, error)) (partition.P, int64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pt, _, acted, err := step()
		runtime.ReadMemStats(&after)
		if err != nil || !acted {
			t.Fatalf("acted=%v err=%v", acted, err)
		}
		return pt, int64(after.TotalAlloc - before.TotalAlloc)
	}
	excess := int64(math.MaxInt64)
	for step := warm + 1; step <= warm+steps; step++ {
		for _, s := range []*Session{plain, retry} {
			if err := s.UpdateWeights(testWeights(m, step)); err != nil {
				t.Fatal(err)
			}
		}
		want, a := allocs(func() (partition.P, Stats, bool, error) { return plain.RepartitionIfAbove(0) })
		got, b := allocs(func() (partition.P, Stats, bool, error) {
			return retry.RepartitionWithRetry(context.Background(), 0, RetryPolicy{})
		})
		assignEqual(t, want, got, "retry vs plain step")
		excess = min(excess, b-a)
	}
	if excess >= int64(len(ckpt)/2) {
		t.Fatalf("a fault-free retry allocates %d B more than the plain step; a checkpoint is %d B", excess, len(ckpt))
	}
}

// TestSessionCloseRace is the satellite regression for concurrent
// misuse: goroutines hammer session verbs while another closes it. Under
// -race this must be clean, and every call must either succeed or return
// exactly ErrClosed — never a partial-state error or a torn read.
func TestSessionCloseRace(t *testing.T) {
	m := sessionTestMesh(t, 600)
	const k, p = 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	sess := buildWarmSession(t, m, k, p, 0, cfg)

	start := make(chan struct{})
	unexpected := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 6; i++ {
				var err error
				switch (g + i) % 4 {
				case 0:
					_, _, err = sess.Repartition()
				case 1:
					err = sess.UpdateWeights(testWeights(m, i))
				case 2:
					_, err = sess.Imbalance()
				case 3:
					_, err = sess.Checkpoint()
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					unexpected <- err
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := sess.Close(); err != nil {
			unexpected <- err
		}
	}()
	close(start)
	wg.Wait()
	close(unexpected)
	for err := range unexpected {
		t.Errorf("unexpected error during close race: %v", err)
	}

	// After the dust settles the session is closed for good.
	if _, _, err := sess.Repartition(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Repartition: %v, want ErrClosed", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

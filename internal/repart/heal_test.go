package repart

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// episodeCounter is an mpi.Hooks that counts every rank's collective
// entries, so a test can find the episodes one verb spans.
type episodeCounter struct {
	mu sync.Mutex
	n  []int64
}

func (c *episodeCounter) BeforeCollective(rank int, episode int64) error {
	c.mu.Lock()
	c.n[rank] = episode + 1
	c.mu.Unlock()
	return nil
}

// entered returns the episode count every rank has reached.
func (c *episodeCounter) entered() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return min(c.n[0], c.n[len(c.n)-1])
}

// healCase is one verb under test: prep takes a fresh session to the
// state the verb starts from, verb is the step a fault interrupts, and
// the chain it is checked by is verb followed by two weight-perturbed
// warm steps.
type healCase struct {
	name string
	prep func(t *testing.T, s *Session)
	verb func(s *Session) (partition.P, error)
}

// TestSessionHealsAtEveryAbortPoint pins the session's recovery rule at
// every collective episode of each verb — the cold Partition, a
// weights-dirty warm step, and a coords-dirty warm step whose flush
// runs the bounding-box collective first. One transient fault at the
// episode aborts the verb with ErrBroken; the session must read as it
// did before the verb (Blocks, Imbalance, LastInfo), and the verb and
// the two steps after it must be bit-identical to the fault-free chain.
func TestSessionHealsAtEveryAbortPoint(t *testing.T) {
	m := sessionTestMesh(t, 300)
	const k, p = 4, 2
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps0 := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}

	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	warm := func(s *Session) (partition.P, error) {
		p, _, err := s.Repartition()
		return p, err
	}
	warmAfter := func(step int) func(s *Session) (partition.P, error) {
		return func(s *Session) (partition.P, error) {
			if err := s.UpdateWeights(testWeights(m, step)); err != nil {
				return partition.P{}, err
			}
			return warm(s)
		}
	}
	// A warm session whose last step left carried bounds.
	carried := func(t *testing.T, s *Session) {
		_, err := s.Partition()
		must(t, err)
		_, err = warmAfter(1)(s)
		must(t, err)
	}
	cases := []healCase{
		{"cold", func(*testing.T, *Session) {}, func(s *Session) (partition.P, error) { return s.Partition() }},
		{"weights-dirty", func(t *testing.T, s *Session) {
			carried(t, s)
			must(t, s.UpdateWeights(testWeights(m, 2)))
		}, warm},
		{"coords-dirty", func(t *testing.T, s *Session) {
			carried(t, s)
			must(t, s.UpdateCoords(driftCoords(m)))
			must(t, s.UpdateWeights(testWeights(m, 2)))
		}, warm},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chain := []func(s *Session) (partition.P, error){tc.verb, warmAfter(3), warmAfter(4)}
			build := func(hooks mpi.Hooks) *Session {
				w := mpi.NewWorld(p)
				w.SetHooks(hooks)
				s, err := NewSession(w, ps0.Clone(), k, cfg)
				must(t, err)
				tc.prep(t, s)
				return s
			}

			// The fault-free chain, counting the episodes the verb spans.
			ctr := &episodeCounter{n: make([]int64, p)}
			ref := build(ctr)
			first, last := ctr.entered(), int64(0)
			want := make([]partition.P, len(chain))
			for i, step := range chain {
				var err error
				want[i], err = step(ref)
				must(t, err)
				if i == 0 {
					last = ctr.entered()
				}
			}
			ref.Close()
			if last <= first {
				t.Fatalf("the verb entered no collective (episodes %d..%d)", first, last)
			}
			for ep := first; ep < last; ep++ {
				t.Run(fmt.Sprintf("episode=%d", ep), func(t *testing.T) {
					checkHealAt(t, build, ep, p, chain, want)
				})
			}
		})
	}
}

// checkHealAt arms one transient fault at episode ep, runs the chain's
// verb into it, and checks the session healed: an ErrBroken abort, the
// pre-verb observable state, then the whole chain bit-identical to want.
func checkHealAt(t *testing.T, build func(mpi.Hooks) *Session, ep int64, p int,
	chain []func(s *Session) (partition.P, error), want []partition.P) {
	plan := mpi.NewFaultPlan(mpi.Fault{Rank: int(ep) % p, Episode: ep, Kind: mpi.FaultTransient})
	s := build(plan)
	defer s.Close()
	blocks, info := s.Blocks(), s.LastInfo()
	imb, imbErr := s.Imbalance()

	if _, err := chain[0](s); !errors.Is(err, mpi.ErrBroken) || !errors.Is(err, mpi.ErrInjected) {
		t.Fatalf("faulted verb: err = %v, want an injected ErrBroken", err)
	}
	if plan.Fired() != 1 {
		t.Fatalf("plan fired %d faults, want 1", plan.Fired())
	}
	if got := s.Blocks(); !slices.Equal(got, blocks) {
		t.Fatal("Blocks changed across the aborted verb")
	}
	if got := s.LastInfo(); got != info {
		t.Fatalf("LastInfo changed across the aborted verb: %+v, was %+v", got, info)
	}
	if got, err := s.Imbalance(); got != imb || (err == nil) != (imbErr == nil) {
		t.Fatalf("Imbalance = (%g, %v) after the aborted verb, was (%g, %v)", got, err, imb, imbErr)
	}
	for i, step := range chain {
		got, err := step(s)
		if err != nil {
			t.Fatalf("step %d after the heal: %v", i, err)
		}
		assignEqual(t, want[i], got, fmt.Sprintf("step %d after the heal", i))
	}
}

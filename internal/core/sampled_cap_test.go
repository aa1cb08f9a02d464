package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// balanceCall is one assignAndBalance call as one rank saw it.
type balanceCall struct {
	rounds  int
	sampled bool // this rank's sample was a strict prefix of its points
}

// roundTally is a test-side mpi.Hooks that splits every rank's balance
// rounds into assignAndBalance calls. At each collective a rank enters,
// it reads that rank's own state — on the rank's goroutine, so without a
// race: a cold balance round issues exactly one collective, so a call is
// a run of collectives each one round past the previous one, and a
// collective without a new round (the center update's) ends it.
type roundTally struct {
	states []*state
	last   []int
	open   []bool
	calls  [][]balanceCall
	errs   []error
}

func newRoundTally(p int) *roundTally {
	return &roundTally{
		states: make([]*state, p), last: make([]int, p), open: make([]bool, p),
		calls: make([][]balanceCall, p), errs: make([]error, p),
	}
}

func (r *roundTally) BeforeCollective(rank int, _ int64) error {
	st := r.states[rank]
	if st == nil {
		return nil // still ingesting
	}
	switch d := st.info.BalanceRounds - r.last[rank]; {
	case d == 0:
		r.open[rank] = false
	case d == 1 && r.open[rank]:
		r.calls[rank][len(r.calls[rank])-1].rounds++
	case d == 1:
		r.calls[rank] = append(r.calls[rank], balanceCall{1, st.nSample < st.X.Len()})
		r.open[rank] = true
	default:
		r.errs[rank] = fmt.Errorf("rank %d: %d balance rounds between two collectives", rank, d)
	}
	r.last[rank] = st.info.BalanceRounds
	return nil
}

// tallied is refIngest with the roundTally attached: the state is
// registered before the k-means phase starts, and a layout with
// first > 0 is skewed first (see skew).
type tallied struct {
	refIngest
	tally *roundTally
	first int
}

func (b tallied) Partition(c *mpi.Comm, pts *partition.Local, k int) ([]int64, []int32, error) {
	if b.first > 0 {
		pts = skew(c, pts, b.first)
	}
	st, err := b.ingest(c, pts, k)
	if err != nil {
		return nil, nil, err
	}
	b.tally.states[c.Rank()] = st
	return b.finishProbed(st)
}

// TestSampledRoundsCapCollective: while any rank is still sampling, a
// balance call of a run without the curve bootstrap stops after
// sampledBalanceRounds rounds — on every rank at the same round, also on
// layouts whose ranks leave the sample in different iterations: a rank
// too small to sample beside ranks that do, and 200 against 201 points,
// where one rank's doubled sample covers it an iteration before the
// other's does. A rank that stopped on its own view would leave its
// peers in a balance collective it never enters; the deadline turns a
// hang into a failure of this test. The control: with the bootstrap on,
// sampled calls still run past the cap.
func TestSampledRoundsCapCollective(t *testing.T) {
	type capCase struct {
		name             string
		dim, n, p, first int
		sfc              bool
	}
	var cases []capCase
	cappedStraddles := 0
	for _, dim := range []int{2, 16} {
		cases = append(cases,
			capCase{fmt.Sprintf("small-rank/d=%d", dim), dim, 3000, 3, 60, false},
			capCase{fmt.Sprintf("n=401/p=2/d=%d", dim), dim, 401, 2, 0, false},
		)
	}
	cases = append(cases, capCase{"bootstrap/n=401/p=2/d=2", 2, 401, 2, 0, true})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.Seed = 5
			cfg.SFCBootstrap = tc.sfc
			tally := newRoundTally(tc.p)
			rounds := make([]int, tc.p)
			probe := func(st *state) { rounds[st.c.Rank()] = st.info.BalanceRounds }
			w := mpi.NewWorld(tc.p)
			w.SetHooks(tally)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			run := tallied{refIngest{New(cfg), probe}, tally, tc.first}
			if _, err := partition.RunCtx(ctx, w, flatRandomPoints(tc.n, tc.dim, int64(70+tc.dim)), 8, run); err != nil {
				t.Fatal(err)
			}
			for _, err := range tally.errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for r := range rounds {
				if rounds[r] != rounds[0] || len(tally.calls[r]) != len(tally.calls[0]) {
					t.Fatalf("rank %d ran %d rounds in %d calls, rank 0 %d in %d",
						r, rounds[r], len(tally.calls[r]), rounds[0], len(tally.calls[0]))
				}
			}
			straddled, past := 0, 0
			for i := range tally.calls[0] {
				sampled, local := false, 0
				for r := range tally.calls {
					c := tally.calls[r][i]
					if c.rounds != tally.calls[0][i].rounds {
						t.Errorf("call %d: rank %d ran %d rounds, rank 0 %d", i, r, c.rounds, tally.calls[0][i].rounds)
					}
					if c.sampled {
						sampled = true
						local++
					}
				}
				if !sampled {
					continue
				}
				n := tally.calls[0][i].rounds
				if n > sampledBalanceRounds {
					past++
					if !tc.sfc {
						t.Errorf("sampled call %d ran %d rounds, cap %d", i, n, sampledBalanceRounds)
					}
				}
				if local < tc.p {
					straddled++
					if n == sampledBalanceRounds && !tc.sfc {
						cappedStraddles++
					}
				}
			}
			if tc.sfc && past == 0 {
				t.Errorf("with the bootstrap no sampled call ran past %d rounds: %v", sampledBalanceRounds, tally.calls)
			}
			// The layout must exercise what the test is about.
			if straddled == 0 {
				t.Errorf("no call had ranks out of the sample beside sampling ones: %v", tally.calls)
			}
		})
	}
	// At small-rank/d=16 every sampled call balances within the cap; the
	// others must reach it with the ranks' views of the sample apart.
	if cappedStraddles == 0 {
		t.Error("no call with ranks in and out of the sample reached the cap")
	}
}

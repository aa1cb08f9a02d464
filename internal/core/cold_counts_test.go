package core

import (
	"fmt"
	"testing"

	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// TestColdCountsFence fences what a cold Hamerly rescan costs, in distance
// evaluations per rescanned point, on the cold_mesh2d instance (the vertex
// set of mesh.GenDelaunayUniform2D(100 000, 1), k = 32) at three process
// counts. The box-ordered scan alone read 20.4 at p = 2 and 8.9 at p = 8 —
// a rank holding many blocks has half the centers inside its box — and
// 4.8 at p = k, where the paper's §4.4 prune is in its element. The
// anchored walk has to bring the first two under their limits; at p = 32
// ccTablesPay rejects the tables (k³ > 4·n/p) and the count stays the
// box scan's.
func TestColdCountsFence(t *testing.T) {
	ps := uniformPoints(100_000, 2, 1)
	for _, c := range []struct {
		p     int
		limit float64
	}{{2, 10}, {8, 7}, {32, 5}} {
		t.Run(fmt.Sprintf("p=%d", c.p), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.Seed = 2
			_, bkm := runPartition(t, ps, 32, c.p, cfg)
			info := bkm.LastInfo()
			rescans := info.Visits - info.HamerlySkips
			if rescans <= 0 {
				t.Fatalf("no rescans recorded: %+v", info)
			}
			perRescan := float64(info.DistCalcs) / float64(rescans)
			t.Logf("p=%d: %.2f evaluations per rescan (%d / %d), skip rate %.3f",
				c.p, perRescan, info.DistCalcs, rescans, info.SkipRate())
			if perRescan > c.limit {
				t.Errorf("p=%d: %.2f distance evaluations per rescan, limit %g", c.p, perRescan, c.limit)
			}
		})
	}
}

// TestColdGuardGuardsAllocation: the rule that keeps a cold run off the
// center-center tables also has to keep it from allocating them — at
// k = 1024 that is 12 MB per rank for tables no pass would read. The
// control: a k the guard accepts does build them. (refIngest is the
// test-side Partition that lets a probe see each rank's final state.)
func TestColdGuardGuardsAllocation(t *testing.T) {
	ps := uniformPoints(20_000, 2, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 2
	for _, c := range []struct{ k, want int }{{1024, 0}, {8, 64}} {
		probe := func(st *state) {
			if len(st.ccDist) != c.want || len(st.ccOrder) != c.want {
				t.Errorf("k=%d rank %d: cold run holds %d / %d center-center entries, want %d",
					c.k, st.c.Rank(), len(st.ccDist), len(st.ccOrder), c.want)
			}
		}
		if _, err := partition.Run(mpi.NewWorld(2), ps, c.k, refIngest{New(cfg), probe}); err != nil {
			t.Fatal(err)
		}
	}
}

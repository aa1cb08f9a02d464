package repart

// Byte-level pins of the session checkpoint: the codec may change how
// it writes, never what it writes, and a checkpoint allocates only the
// bytes it returns.

import (
	"hash/fnv"
	"runtime"
	"testing"

	"geographer/internal/core"
	"geographer/internal/mesh"
)

// pinnedSession is one session shape whose checkpoint bytes are pinned.
type pinnedSession struct {
	name string
	want uint64 // FNV-1a 64 of Checkpoint()
	make func(t *testing.T) *Session
}

func pinnedSessions() []pinnedSession {
	return []pinnedSession{
		{
			// Hamerly carried bounds (with the raw shadow) on one rank.
			name: "2d/p=1/hamerly",
			want: 0x8870583cbb6233e8,
			make: func(t *testing.T) *Session {
				cfg := core.DefaultConfig()
				cfg.Seed = 1
				return buildWarmSession(t, sessionTestMesh(t, 1500), 6, 1, 2, cfg)
			},
		},
		{
			// Three ranks, raw shadow, and a weight update still pending.
			name: "3d/p=3/raw-shadow",
			want: 0x4d5601d91626ef16,
			make: func(t *testing.T) *Session {
				m, err := mesh.GenDelaunay3D(1200, 42)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.Seed = 2
				s := buildWarmSession(t, m, 5, 3, 2, cfg)
				if err := s.UpdateWeights(testWeights(m, 3)); err != nil {
					t.Fatal(err)
				}
				return s
			},
		},
		{
			// Feature space with Elkan's per-center bounds.
			name: "16d/p=2/elkan",
			want: 0x7646abe137edacdc,
			make: func(t *testing.T) *Session {
				cfg := core.DefaultConfig()
				cfg.Seed = 3
				cfg.Bounds = core.BoundsElkan
				m := &mesh.Mesh{Points: gaussianMixture(800, 16, 4, 3)}
				return buildWarmSession(t, m, 4, 2, 2, cfg)
			},
		},
	}
}

// TestCheckpointBytesPinned pins the FNV-1a hash of Checkpoint() for
// three session shapes, captured with the v3 resident record (box and
// carried block, no point columns; the 16-D row again when its cold start
// began stopping sampled balance calls after eight rounds): any change to
// the bytes on the wire, or to the partition they carry, fails here.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, tc := range pinnedSessions() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make(t)
			defer s.Close()
			ckpt, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(ckpt)
			if got := h.Sum64(); got != tc.want {
				t.Errorf("checkpoint of %d bytes hashes to %#x, want %#x", len(ckpt), got, tc.want)
			}
		})
	}
}

// TestCheckpointAllocFence: a checkpoint is sized before it is encoded,
// so it allocates one buffer of exactly the bytes it returns. The
// runtime hands out a large object in whole 8 KiB pages; the fence
// allows that rounding plus 4 KiB for everything else.
func TestCheckpointAllocFence(t *testing.T) {
	for _, tc := range pinnedSessions() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make(t)
			defer s.Close()
			var ckpt []byte
			var err error
			got := minAlloc(5, func() { ckpt, err = s.Checkpoint() })
			if err != nil {
				t.Fatal(err)
			}
			if cap(ckpt) != len(ckpt) {
				t.Errorf("checkpoint of %d bytes has capacity %d", len(ckpt), cap(ckpt))
			}
			const page = 8 << 10
			limit := uint64((len(ckpt)+page-1)/page*page + 4<<10)
			t.Logf("checkpoint of %d bytes allocated %d bytes", len(ckpt), got)
			if got > limit {
				t.Errorf("checkpoint of %d bytes allocated %d bytes, fence %d", len(ckpt), got, limit)
			}
		})
	}
}

// minAlloc returns the fewest heap bytes one call of f allocated over
// runs calls: TotalAlloc is process-wide, and the minimum drops what
// other goroutines allocated meanwhile.
func minAlloc(runs int, f func()) uint64 {
	least := ^uint64(0)
	for range runs {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// snapPoints picks the snapshot tests' workload for a dimension: the
// mesh-like uniform generator in the spatial regime, the flat generator
// beyond geom.MaxDim.
func snapPoints(n, dim int) *geom.PointSet {
	if dim <= geom.MaxDim {
		return uniformPoints(n, dim, 101)
	}
	return flatRandomPoints(n, dim, 101)
}

// buildWarmResidents builds p residents with live carried bounds: cold
// partition, ingest, then `steps` warm incremental steps with a weight
// perturbation per step so the carry machinery has real work. It
// returns the point set too, holding the weights of the last step: the
// points a restore of the residents rebuilds its columns from.
func buildWarmResidents(t testing.TB, n, dim, k, p, steps int, cfg Config) ([]*Resident, []int32, *geom.PointSet) {
	t.Helper()
	ps := snapPoints(n, dim).Clone()
	bkm0 := New(cfg)
	w0 := mpi.NewWorld(p)
	prev, err := partition.Run(w0, ps, k, bkm0)
	if err != nil {
		t.Fatalf("cold partition: %v", err)
	}
	w := mpi.NewWorld(p)
	res := make([]*Resident, p)
	if err := w.Run(func(c *mpi.Comm) {
		res[c.Rank()] = Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		t.Fatal(err)
	}
	assign := append([]int32(nil), prev.Assign...)
	var wt []float64
	for s := 0; s < steps; s++ {
		wt = make([]float64, n)
		for i := range wt {
			wt[i] = 1 + 0.3*math.Sin(float64(i)*0.37+float64(s))
		}
		for _, r := range res {
			r.SetWeightsGlobal(wt)
		}
		centers := warmCentersFrom(ps, assign, k)
		bkm := New(cfg)
		out := make([]int32, n)
		if err := w.Run(func(c *mpi.Comm) {
			ids, blocks, err := bkm.PartitionResident(c, res[c.Rank()], k, centers)
			if err != nil {
				panic(err)
			}
			for i, id := range ids {
				out[id] = blocks[i]
			}
		}); err != nil {
			t.Fatal(err)
		}
		assign = out
	}
	ps.Weight = wt
	return res, assign, ps
}

// snapshotBytes encodes r's record into a buffer sized by a counting
// pass over the same Snapshot call, as a session checkpoint does.
func snapshotBytes(r *Resident) []byte {
	c := NewSnapCounter()
	r.Snapshot(c)
	e := NewSnapEncoder(c.Len())
	r.Snapshot(e)
	return e.Bytes()
}

// warmStepOn runs one more warm step on the given residents and returns
// the global assignment.
func warmStepOn(t *testing.T, res []*Resident, assign []int32, n, dim, k int, cfg Config) []int32 {
	t.Helper()
	p := len(res)
	ps := snapPoints(n, dim)
	wt := make([]float64, n)
	for i := range wt {
		wt[i] = 1 + 0.3*math.Sin(float64(i)*0.37+99)
	}
	for _, r := range res {
		r.SetWeightsGlobal(wt)
	}
	centers := warmCentersFrom(ps, assign, k)
	bkm := New(cfg)
	out := make([]int32, n)
	w := mpi.NewWorld(p)
	if err := w.Run(func(c *mpi.Comm) {
		ids, blocks, err := bkm.PartitionResident(c, res[c.Rank()], k, centers)
		if err != nil {
			panic(err)
		}
		for i, id := range ids {
			out[id] = blocks[i]
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !bkm.LastInfo().CarriedBounds {
		t.Fatal("warm step did not take the incremental carried path")
	}
	return out
}

// TestSnapshotRoundTripBitIdentical is the restore contract: snapshot →
// restore yields residents whose encoding is byte-identical to the
// original's, and whose next warm incremental step produces the exact
// same partition as continuing on the originals — including taking the
// carried-bounds fast path, not a silent reset.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	const n, k, p = 3000, 8, 4
	for _, dim := range []int{2, 8} {
		for _, bounds := range []BoundsKind{BoundsHamerly, BoundsElkan} {
			t.Run(fmt.Sprintf("dim=%d/%s", dim, bounds), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Seed = 1
				cfg.Bounds = bounds
				res, assign, ps := buildWarmResidents(t, n, dim, k, p, 2, cfg)

				// Encode every rank, restore into fresh residents.
				restored := make([]*Resident, p)
				for r := range res {
					blob := snapshotBytes(res[r])
					if cap(blob) != len(blob) {
						t.Fatalf("rank %d: encoded %d bytes into capacity %d", r, len(blob), cap(blob))
					}
					got, err := RestoreResident(NewSnapDecoder(blob), partition.View(ps, p, r))
					if err != nil {
						t.Fatalf("rank %d: restore: %v", r, err)
					}
					if !bytes.Equal(blob, snapshotBytes(got)) {
						t.Fatalf("rank %d: re-encode differs from original encode", r)
					}
					restored[r] = got
				}

				want := warmStepOn(t, res, assign, n, dim, k, cfg)
				got := warmStepOn(t, restored, assign, n, dim, k, cfg)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("restored chain diverged at point %d: %d vs %d", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestSnapshotWithoutCarryRestores covers the cold side: a resident
// that never ran (no carried bounds) round-trips and partitions.
func TestSnapshotWithoutCarryRestores(t *testing.T) {
	const n, k, p = 1000, 4, 2
	ps := uniformPoints(n, 3, 7)
	prev, _ := runPartition(t, ps, k, p, DefaultConfig())
	w := mpi.NewWorld(p)
	res := make([]*Resident, p)
	if err := w.Run(func(c *mpi.Comm) {
		res[c.Rank()] = Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		t.Fatal(err)
	}
	restored := make([]*Resident, p)
	for r := range res {
		got, err := RestoreResident(NewSnapDecoder(snapshotBytes(res[r])), partition.View(ps, p, r))
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if got.st.X.Len() != res[r].st.X.Len() || got.dim != res[r].dim {
			t.Fatalf("rank %d: restored %d points dim %d", r, got.st.X.Len(), got.dim)
		}
		restored[r] = got
	}
	cfg := DefaultConfig()
	centers := warmCentersFrom(ps, prev.Assign, k)
	bkm := New(cfg)
	out := make([]int32, n)
	w2 := mpi.NewWorld(p)
	if err := w2.Run(func(c *mpi.Comm) {
		ids, blocks, err := bkm.PartitionResident(c, restored[c.Rank()], k, centers)
		if err != nil {
			panic(err)
		}
		for i, id := range ids {
			out[id] = blocks[i]
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDecodeErrors: corrupted, truncated, and wrong-version
// inputs return the typed sentinels and never panic.
func TestSnapshotDecodeErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	res, _, ps := buildWarmResidents(t, 600, 2, 4, 2, 2, cfg)
	valid := snapshotBytes(res[0])
	restore := func(data []byte) error {
		_, err := RestoreResident(NewSnapDecoder(data), partition.View(ps, 2, 0))
		return err
	}

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut += 7 {
			if err := restore(valid[:cut]); err == nil {
				t.Fatalf("truncation at %d decoded successfully", cut)
			} else if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("truncation at %d: untyped error %v", cut, err)
			}
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[4] = 0xEE // version field, little-endian low byte
		err := restore(bad)
		if !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("want ErrCheckpointVersion, got %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] ^= 0xFF
		err := restore(bad)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
		}
	})
	t.Run("huge length prefix", func(t *testing.T) {
		// A corrupted slice length must be rejected by the remaining-bytes
		// guard, not drive a giant allocation.
		bad := append([]byte(nil), valid...)
		for i := 8; i < 16; i++ { // the box's length prefix
			bad[i] = 0xFF
		}
		err := restore(bad)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
		}
	})
}

// TestRestoreRejectsUnsoundCarry: carried state that would make a
// carried skip unsound is refused, typed as a corrupt checkpoint and as
// geom.ErrNonFinite. A NaN center drops out of the drift maximum, and a
// zero influence or a NaN or negative upper bound shrinks ub·influence
// below the true distance.
func TestRestoreRejectsUnsoundCarry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	res, _, ps := buildWarmResidents(t, 600, 2, 4, 1, 2, cfg)
	st := &res[0].st
	if !res[0].carries() {
		t.Fatal("fixture resident carries no bounds")
	}
	last := func(v []float64) *float64 { return &v[len(v)-1] }
	for _, tc := range []struct {
		name string
		at   *float64
		val  float64
	}{
		{"NaN last center coordinate", last(st.boundCenters), math.NaN()},
		{"Inf center coordinate", &st.boundCenters[0], math.Inf(-1)},
		{"zero last influence", last(st.influence), 0},
		{"negative influence", &st.influence[0], -0.5},
		{"Inf influence", &st.influence[0], math.Inf(1)},
		{"NaN influence", &st.influence[1], math.NaN()},
		{"NaN upper bound", last(st.ub), math.NaN()},
		{"negative upper bound", &st.ub[0], -1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saved := *tc.at
			*tc.at = tc.val
			blob := snapshotBytes(res[0])
			*tc.at = saved
			_, err := RestoreResident(NewSnapDecoder(blob), partition.View(ps, 1, 0))
			if !errors.Is(err, ErrCheckpointCorrupt) || !errors.Is(err, geom.ErrNonFinite) {
				t.Fatalf("restore = %v, want ErrCheckpointCorrupt and ErrNonFinite", err)
			}
		})
	}
}

// TestRestoreResidentAllocFence: a restore allocates each slice once at
// its final size — the rank's view of the point set builds the ids,
// weights and coordinate columns the resident adopts, and no column
// passes through a temporary — so it allocates about the
// bytes of the record it decodes plus the columns it rebuilds: n·dim
// coordinates, n weights and n ids, which the v2 record carried itself.
func TestRestoreResidentAllocFence(t *testing.T) {
	const n, dim = 20_000, 3
	cfg := DefaultConfig()
	cfg.Seed = 1
	res, _, ps := buildWarmResidents(t, n, dim, 8, 1, 2, cfg)
	blob := snapshotBytes(res[0])
	// TotalAlloc is process-wide: the fewest bytes over three restores
	// drops what other goroutines allocated meanwhile.
	got := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := RestoreResident(NewSnapDecoder(blob), partition.View(ps, 1, 0))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(r)
		got = min(got, float64(after.TotalAlloc-before.TotalAlloc))
	}
	limit := 1.1 * float64(len(blob)+n*(dim+2)*8)
	t.Logf("restore of a %d-byte record over %d points allocated %.0f bytes (fence %.0f)", len(blob), n, got, limit)
	if got > limit {
		t.Errorf("restore allocated %.0f bytes for a %d-byte record over %d points, fence %.0f", got, len(blob), n, limit)
	}
}

// snapSlice locates one length-prefixed numeric slice of a record: the
// offset of its u64 length prefix and the wire size of one element.
type snapSlice struct{ at, elemSize int }

// residentFieldOffsets replays a valid resident record field by field
// through the public decoder and returns the byte offset after each
// field — the exact truncation points that leave a stream cut between
// two fields rather than mid-varint-nowhere — and, in record order,
// every numeric slice: box min and max, then (with a carry) the
// assignment, ub, lb, the raw shadow or Elkan bounds when present, the
// influences and the centers. Mirrors the read sequence of
// RestoreResident.
func residentFieldOffsets(tb testing.TB, blob []byte) ([]int, []snapSlice) {
	tb.Helper()
	d := NewSnapDecoder(blob)
	var offs []int
	var slices []snapSlice
	at := func() int { return len(blob) - d.Len() }
	mark := func() {
		if d.Err() != nil {
			tb.Fatalf("replay of a valid record errored at offset %d: %v", at(), d.Err())
		}
		offs = append(offs, at())
	}
	f64s := func() {
		slices = append(slices, snapSlice{at(), 8})
		d.F64s()
	}
	d.U32() // magic
	mark()
	d.U32() // version
	mark()
	f64s() // box min
	mark()
	f64s() // box max
	mark()
	carry := d.Bool()
	mark()
	if carry {
		d.Str() // bounds kind
		mark()
		d.U32() // carried k
		mark()
		slices = append(slices, snapSlice{at(), 4})
		d.I32s() // assignment
		mark()
		f64s() // upper bounds
		mark()
		f64s() // lower bounds
		mark()
		if d.Bool() { // raw shadow present
			f64s()
		}
		mark()
		if d.Bool() { // per-center Elkan bounds present
			f64s()
		}
		mark()
		f64s() // influence
		mark()
		f64s() // centers
		mark()
	}
	return offs, slices
}

// extremeSeeds returns copies of blob with the first element of each
// non-empty slice set to each value a hostile writer could plant: 2^40,
// NaN, ±Inf, 0 and −1 in a float slice, the int32 extremes, 2^20, 0
// and −1 in the assignment.
func extremeSeeds(blob []byte, slices []snapSlice) [][]byte {
	var out [][]byte
	for _, sl := range slices {
		if binary.LittleEndian.Uint64(blob[sl.at:]) == 0 {
			continue
		}
		first := sl.at + 8
		if sl.elemSize == 4 {
			for _, v := range []int32{math.MaxInt32, math.MinInt32, 1 << 20, 0, -1} {
				b := append([]byte(nil), blob...)
				binary.LittleEndian.PutUint32(b[first:], uint32(v))
				out = append(out, b)
			}
			continue
		}
		for _, v := range []float64{1 << 40, math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			b := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint64(b[first:], math.Float64bits(v))
			out = append(out, b)
		}
	}
	return out
}

// FuzzSnapshotRoundTrip: arbitrary bytes never panic the decoder, and
// anything that decodes successfully re-encodes to a stream that decodes
// to the same bytes again (decode∘encode is the identity on the image of
// encode). Every input restores onto one rank's points of a 2-D or an
// 8-D point set (wide), the shapes of the seed records. The seed corpus
// covers every field boundary: a valid record truncated after each
// field, and a valid record with trailing garbage — the torn-write and
// overwrite shapes the disk spill store must turn into typed errors —
// plus slices overrunning the record and extreme first elements.
func FuzzSnapshotRoundTrip(f *testing.F) {
	const n, p = 200, 2
	cfg := DefaultConfig()
	cfg.Seed = 1
	points := map[bool]*geom.PointSet{}
	for _, wide := range []bool{false, true} {
		dim := 2
		if wide {
			dim = 8
		}
		res, _, ps := buildWarmResidents(f, n, dim, 4, p, 2, cfg)
		points[wide] = ps
		for _, r := range res {
			blob := snapshotBytes(r)
			f.Add(blob, wide)
			offs, slices := residentFieldOffsets(f, blob)
			for _, off := range offs {
				f.Add(append([]byte(nil), blob[:off]...), wide)
			}
			f.Add(append(append([]byte(nil), blob...), 0xDE, 0xAD, 0xBE, 0xEF), wide)
			// Slices whose byte run overruns the bytes left by 1, 7 and 8:
			// the box minimum, the assignment and the upper bounds.
			for _, sl := range []snapSlice{slices[0], slices[2], slices[3]} {
				m := int(binary.LittleEndian.Uint64(blob[sl.at:]))
				for _, over := range []int{1, 7, 8} {
					f.Add(append([]byte(nil), blob[:sl.at+8+m*sl.elemSize-over]...), wide)
				}
			}
			for _, b := range extremeSeeds(blob, slices) {
				f.Add(b, wide)
			}
		}
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0x52, 0x4F, 0x45, 0x47}, false)
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		ps := points[wide]
		r, err := RestoreResident(NewSnapDecoder(data), partition.View(ps, p, 0))
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		first := snapshotBytes(r)
		r2, err := RestoreResident(NewSnapDecoder(first), partition.View(ps, p, 0))
		if err != nil {
			t.Fatalf("re-decode of a valid encode failed: %v", err)
		}
		if !bytes.Equal(first, snapshotBytes(r2)) {
			t.Fatal("encode∘decode not stable")
		}
	})
}

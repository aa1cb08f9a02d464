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
// perturbation per step so the carry machinery has real work.
func buildWarmResidents(t testing.TB, n, dim, k, p, steps int, cfg Config) ([]*Resident, []int32, *BalancedKMeans) {
	t.Helper()
	ps := snapPoints(n, dim)
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
	var bkm *BalancedKMeans
	for s := 0; s < steps; s++ {
		wt := make([]float64, n)
		for i := range wt {
			wt[i] = 1 + 0.3*math.Sin(float64(i)*0.37+float64(s))
		}
		for _, r := range res {
			r.SetWeightsGlobal(wt)
		}
		centers := warmCentersFrom(ps, assign, k)
		bkm = New(cfg)
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
	return res, assign, bkm
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
				res, assign, _ := buildWarmResidents(t, n, dim, k, p, 2, cfg)

				// Encode every rank, restore into fresh residents.
				restored := make([]*Resident, p)
				for r := range res {
					enc := NewSnapEncoder(res[r].SnapshotLen())
					res[r].Snapshot(enc)
					if b := enc.Bytes(); len(b) != res[r].SnapshotLen() || cap(b) != len(b) {
						t.Fatalf("rank %d: encoded %d bytes (cap %d), SnapshotLen %d",
							r, len(b), cap(b), res[r].SnapshotLen())
					}
					blob := append([]byte(nil), enc.Bytes()...)
					got, err := RestoreResident(NewSnapDecoder(blob))
					if err != nil {
						t.Fatalf("rank %d: restore: %v", r, err)
					}
					re := NewSnapEncoder(got.SnapshotLen())
					got.Snapshot(re)
					if !bytes.Equal(blob, re.Bytes()) {
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
		enc := NewSnapEncoder(res[r].SnapshotLen())
		res[r].Snapshot(enc)
		if len(enc.Bytes()) != res[r].SnapshotLen() {
			t.Fatalf("rank %d: encoded %d bytes, SnapshotLen %d", r, len(enc.Bytes()), res[r].SnapshotLen())
		}
		got, err := RestoreResident(NewSnapDecoder(enc.Bytes()))
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if got.Len() != res[r].Len() || got.Dim() != res[r].Dim() {
			t.Fatalf("rank %d: restored %d points dim %d", r, got.Len(), got.Dim())
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
	res, _, _ := buildWarmResidents(t, 600, 2, 4, 2, 2, cfg)
	enc := NewSnapEncoder(res[0].SnapshotLen())
	res[0].Snapshot(enc)
	valid := enc.Bytes()

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut += 7 {
			if _, err := RestoreResident(NewSnapDecoder(valid[:cut])); err == nil {
				t.Fatalf("truncation at %d decoded successfully", cut)
			} else if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("truncation at %d: untyped error %v", cut, err)
			}
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[4] = 0xEE // version field, little-endian low byte
		_, err := RestoreResident(NewSnapDecoder(bad))
		if !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("want ErrCheckpointVersion, got %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] ^= 0xFF
		_, err := RestoreResident(NewSnapDecoder(bad))
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
		}
	})
	t.Run("huge length prefix", func(t *testing.T) {
		// A corrupted slice length must be rejected by the remaining-bytes
		// guard, not drive a giant allocation.
		bad := append([]byte(nil), valid...)
		for i := 12; i < 20; i++ {
			bad[i] = 0xFF
		}
		_, err := RestoreResident(NewSnapDecoder(bad))
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
	res, _, _ := buildWarmResidents(t, 600, 2, 4, 1, 2, cfg)
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
			enc := NewSnapEncoder(res[0].SnapshotLen())
			res[0].Snapshot(enc)
			*tc.at = saved
			_, err := RestoreResident(NewSnapDecoder(enc.Bytes()))
			if !errors.Is(err, ErrCheckpointCorrupt) || !errors.Is(err, geom.ErrNonFinite) {
				t.Fatalf("restore = %v, want ErrCheckpointCorrupt and ErrNonFinite", err)
			}
		})
	}
}

// TestRestoreResidentAllocFence: a restore allocates each slice once at
// its final size — the columns go straight into the MakeCols backing,
// not through a temporary per axis — so it allocates about the bytes of
// the record it decodes.
func TestRestoreResidentAllocFence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	res, _, _ := buildWarmResidents(t, 20_000, 3, 8, 1, 2, cfg)
	enc := NewSnapEncoder(res[0].SnapshotLen())
	res[0].Snapshot(enc)
	blob := enc.Bytes()
	// TotalAlloc is process-wide: the fewest bytes over three restores
	// drops what other goroutines allocated meanwhile.
	got := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := RestoreResident(NewSnapDecoder(blob))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(r)
		got = min(got, float64(after.TotalAlloc-before.TotalAlloc))
	}
	limit := 1.1 * float64(len(blob))
	t.Logf("restore of a %d-byte record allocated %.0f bytes (fence %.0f)", len(blob), got, limit)
	if got > limit {
		t.Errorf("restore allocated %.0f bytes for a %d-byte record, fence %.0f", got, len(blob), limit)
	}
}

// residentFieldOffsets replays a valid resident record field by field
// through the public decoder and returns the byte offset after each
// field — the exact truncation points that leave a stream cut between
// two fields rather than mid-varint-nowhere. Mirrors the read sequence
// of RestoreResident.
func residentFieldOffsets(tb testing.TB, blob []byte) []int {
	tb.Helper()
	d := NewSnapDecoder(blob)
	var offs []int
	mark := func() {
		if d.Err() != nil {
			tb.Fatalf("replay of a valid record errored at offset %d: %v", len(blob)-d.Len(), d.Err())
		}
		offs = append(offs, len(blob)-d.Len())
	}
	d.U32() // magic
	mark()
	d.U32() // version
	mark()
	dim := int(d.U32())
	mark()
	d.F64s() // box min
	mark()
	d.F64s() // box max
	mark()
	n := int(d.U64())
	mark()
	for di := 0; di < dim; di++ {
		d.F64s() // coordinate column
		mark()
	}
	d.F64s() // weights
	mark()
	d.I64s() // ids
	mark()
	carry := d.Bool()
	mark()
	if carry {
		d.Str() // bounds kind
		mark()
		d.U32() // carried k
		mark()
		d.I32s() // assignment
		mark()
		d.F64s() // upper bounds
		mark()
		d.F64s() // lower bounds
		mark()
		if d.Bool() { // raw shadow present
			d.F64s()
		}
		mark()
		if d.Bool() { // per-center Elkan bounds present
			d.F64s()
		}
		mark()
		d.F64s() // influence
		mark()
		d.F64s() // centers
		mark()
	}
	_ = n
	return offs
}

// FuzzSnapshotRoundTrip: arbitrary bytes never panic the decoder, and
// anything that decodes successfully re-encodes to a stream that decodes
// to the same bytes again (decode∘encode is the identity on the image of
// encode). The seed corpus covers every field boundary: a valid record
// truncated after each field, and a valid record with trailing garbage —
// the torn-write and overwrite shapes the disk spill store must turn
// into typed errors.
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	for _, dim := range []int{2, 8} {
		res, _, _ := buildWarmResidents(f, 200, dim, 4, 2, 2, cfg)
		for _, r := range res {
			enc := NewSnapEncoder(r.SnapshotLen())
			r.Snapshot(enc)
			blob := append([]byte(nil), enc.Bytes()...)
			f.Add(blob)
			for _, off := range residentFieldOffsets(f, blob) {
				f.Add(append([]byte(nil), blob[:off]...))
			}
			f.Add(append(append([]byte(nil), blob...), 0xDE, 0xAD, 0xBE, 0xEF))
			// Slices whose byte run overruns the bytes left by 1, 7 and 8:
			// the first coordinate column, the ids and the assignment.
			offs := residentFieldOffsets(f, blob)
			for _, sl := range []struct{ at, elemSize int }{
				{offs[5], 8}, {offs[6+dim], 8}, {offs[10+dim], 4},
			} {
				n := int(binary.LittleEndian.Uint64(blob[sl.at:]))
				for _, over := range []int{1, 7, 8} {
					f.Add(append([]byte(nil), blob[:sl.at+8+n*sl.elemSize-over]...))
				}
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x4F, 0x45, 0x47})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := RestoreResident(NewSnapDecoder(data))
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc := NewSnapEncoder(r.SnapshotLen())
		r.Snapshot(enc)
		first := append([]byte(nil), enc.Bytes()...)
		r2, err := RestoreResident(NewSnapDecoder(first))
		if err != nil {
			t.Fatalf("re-decode of a valid encode failed: %v", err)
		}
		enc2 := NewSnapEncoder(r2.SnapshotLen())
		r2.Snapshot(enc2)
		if !bytes.Equal(first, enc2.Bytes()) {
			t.Fatal("encode∘decode not stable")
		}
	})
}

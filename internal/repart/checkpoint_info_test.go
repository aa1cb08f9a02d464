package repart

// Header-robustness tests for ReadCheckpointInfo: the serving layer
// sizes worlds from spilled checkpoints it did not produce, so the
// header decode must turn every malformed input — truncations at each
// field, flipped magic/version, absurd shape values — into a typed
// error, never a panic and never a nonsense CheckpointInfo. Past the
// header, whatever a restore accepts must also survive a step.

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mesh"
	"geographer/internal/mpi"
)

// sessionHeaderLen is the byte length of the checkpoint header: magic,
// version, K, P, Dim (u32 each) plus N (u64).
const sessionHeaderLen = 5*4 + 8

// validCheckpoint builds one real checkpoint to mutate.
func validCheckpoint(t testing.TB) []byte {
	t.Helper()
	m := sessionTestMesh(t, 600)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	s := buildWarmSession(t, m, 4, 2, 1, cfg)
	defer s.Close()
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return ckpt
}

func TestReadCheckpointInfoTruncations(t *testing.T) {
	ckpt := validCheckpoint(t)
	info, err := ReadCheckpointInfo(ckpt)
	if err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if info.K != 4 || info.P != 2 || info.N != 600 {
		t.Fatalf("header misread: %+v", info)
	}

	// Every prefix up to the header must fail typed — this walks through
	// every field boundary (0, 4, 8, 12, 16, 20) and every mid-field
	// cut, and ends with the full header alone, whose payload cannot
	// hold the points it announces.
	for cut := 0; cut <= sessionHeaderLen; cut++ {
		_, err := ReadCheckpointInfo(ckpt[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
		if !errors.Is(err, core.ErrCheckpointCorrupt) && !errors.Is(err, core.ErrCheckpointVersion) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

func TestReadCheckpointInfoMutations(t *testing.T) {
	ckpt := validCheckpoint(t)
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), ckpt...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, core.ErrCheckpointCorrupt},
		{"bad magic", mutate(func(b []byte) { b[0] ^= 0xFF }), core.ErrCheckpointCorrupt},
		{"future version", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) }), core.ErrCheckpointVersion},
		{"zero k", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }), core.ErrCheckpointCorrupt},
		{"zero p", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) }), core.ErrCheckpointCorrupt},
		{"absurd dim", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<30) }), core.ErrCheckpointCorrupt},
		{"zero n", mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[20:], 0) }), core.ErrCheckpointCorrupt},
		// Shapes the payload cannot hold: a caller sizing a world (six
		// per-rank arrays) or a point set from them must never see them.
		{"p beyond payload", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], math.MaxUint32) }), core.ErrCheckpointCorrupt},
		{"n beyond payload", mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[20:], 1<<40) }), core.ErrCheckpointCorrupt},
		// More blocks than points: no session has that shape.
		{"k beyond n", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], uint32(binary.LittleEndian.Uint64(b[20:])+1))
		}), core.ErrCheckpointCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCheckpointInfo(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzReadCheckpointInfo: arbitrary bytes never panic the header read;
// failures are always one of the two typed sentinels, and successes
// report a shape the validation range allows.
func FuzzReadCheckpointInfo(f *testing.F) {
	m, err := mesh.GenRefinedTri(600, 42)
	if err != nil {
		f.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps0 := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
	s, err := NewSession(mpi.NewWorld(2), ps0.Clone(), 4, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Partition(); err != nil {
		f.Fatal(err)
	}
	ckpt, err := s.Checkpoint()
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), ckpt...))
	for cut := 0; cut <= sessionHeaderLen; cut += 4 {
		f.Add(append([]byte(nil), ckpt[:cut]...))
	}
	f.Add(append(append([]byte(nil), ckpt...), 0xDE, 0xAD))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := ReadCheckpointInfo(data)
		if err != nil {
			if !errors.Is(err, core.ErrCheckpointCorrupt) && !errors.Is(err, core.ErrCheckpointVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if info.K < 1 || info.P < 1 || info.Dim < 1 || info.Dim > 4096 || info.N < 1 {
			t.Fatalf("accepted out-of-range header: %+v", info)
		}
	})
}

// TestCheckpointRestoreRejectsNonFinite: a checkpoint whose bytes are
// intact but whose writer put a NaN coordinate or a negative weight into
// the point set — the only copy of the points — or carried state that
// would make a carried skip unsound into a rank's record is refused at
// restore, typed as both a corrupt checkpoint and geom.ErrNonFinite:
// the values every other entry point rejects.
func TestCheckpointRestoreRejectsNonFinite(t *testing.T) {
	ckpt := validCheckpoint(t)
	info, err := ReadCheckpointInfo(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// Payload after the header: coordinates (u64 length + N·Dim f64s),
	// the has-weights flag, then weights (u64 length + N f64s).
	coord0 := sessionHeaderLen + 8
	weight0 := coord0 + 8*info.N*info.Dim + 1 + 8
	if ckpt[weight0-9] != 1 {
		t.Fatal("fixture checkpoint carries no weights")
	}
	// The checkpoint ends with the last rank's carried influences
	// (u64 length + K f64s) and bound centers (u64 length + K·Dim f64s).
	ctr0 := len(ckpt) - 8*info.K*info.Dim
	infl0 := ctr0 - 8 - 8*info.K
	if binary.LittleEndian.Uint64(ckpt[ctr0-8:]) != uint64(info.K*info.Dim) ||
		binary.LittleEndian.Uint64(ckpt[infl0-8:]) != uint64(info.K) {
		t.Fatal("fixture checkpoint does not end in carried influences and centers")
	}
	for _, tc := range []struct {
		name string
		off  int
		val  float64
	}{
		{"NaN coordinate", coord0, math.NaN()},
		{"negative weight", weight0, -1},
		{"NaN last bound-center coordinate", len(ckpt) - 8, math.NaN()},
		{"zero last influence", ctr0 - 16, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), ckpt...)
			binary.LittleEndian.PutUint64(bad[tc.off:], math.Float64bits(tc.val))
			_, err := NewSessionFromCheckpoint(mpi.NewWorld(info.P), bad, core.DefaultConfig())
			if !errors.Is(err, geom.ErrNonFinite) || !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("restore = %v, want ErrNonFinite and ErrCheckpointCorrupt", err)
			}
		})
	}
}

// checkpointFields replays a valid checkpoint through the public decoder
// and returns the byte offset after each field — header, point set,
// partition, dirty flags, then every field of every rank's record — the
// offset of each record's numeric slices (box min and max, then the
// carried assignment, ub, lb, raw shadow or Elkan bounds, influences and
// centers) with its element size, and the offset of each record.
func checkpointFields(tb testing.TB, ckpt []byte) (offs []int, slices [][2]int, recs []int) {
	tb.Helper()
	d := core.NewSnapDecoder(ckpt)
	at := func() int { return len(ckpt) - d.Len() }
	mark := func() {
		if d.Err() != nil {
			tb.Fatalf("replay of a valid checkpoint errored at offset %d: %v", at(), d.Err())
		}
		offs = append(offs, at())
	}
	slice := func(elemSize int) {
		slices = append(slices, [2]int{at(), elemSize})
		if elemSize == 4 {
			d.I32s()
		} else {
			d.F64s()
		}
	}
	info, err := readHeader(d)
	if err != nil {
		tb.Fatal(err)
	}
	mark()
	d.F64s() // coordinates
	mark()
	if d.Bool() { // weights present
		d.F64s()
	}
	mark()
	if d.Bool() { // partition present
		d.I32s()
	}
	mark()
	d.Bool() // weights dirty
	mark()
	d.Bool() // coordinates dirty
	mark()
	for range info.P {
		recs = append(recs, at())
		d.U32() // magic
		mark()
		d.U32() // version
		mark()
		slice(8) // box min
		mark()
		slice(8) // box max
		mark()
		if !d.Bool() { // carry present
			mark()
			continue
		}
		mark()
		d.Str() // bounds kind
		mark()
		d.U32() // carried k
		mark()
		slice(4) // assignment
		mark()
		slice(8) // upper bounds
		mark()
		slice(8) // lower bounds
		mark()
		if d.Bool() { // raw shadow present
			slice(8)
		}
		mark()
		if d.Bool() { // Elkan bounds present
			slice(8)
		}
		mark()
		slice(8) // influences
		mark()
		slice(8) // bound centers
		mark()
	}
	if d.Len() != 0 {
		tb.Fatalf("replay left %d bytes", d.Len())
	}
	return offs, slices, recs
}

// FuzzRestoreThenStep: whatever bytes NewSessionFromCheckpoint accepts,
// the restored session survives a weight update and a warm step without
// a panic (errors are allowed). The weights-only flush runs in the
// caller's goroutine, outside any world, so a restored resident that
// disagrees with its points would crash the caller, not just a rank.
// Seeds: a valid checkpoint, its truncation after each field, and each
// record slice's first element set to 2^40, NaN, ±Inf, 0 or −1 (the
// int32 extremes, 2^20, 0 or −1 in the assignment).
func FuzzRestoreThenStep(f *testing.F) {
	ckpt := validCheckpoint(f)
	f.Add(ckpt)
	offs, slices, _ := checkpointFields(f, ckpt)
	for _, off := range offs {
		f.Add(append([]byte(nil), ckpt[:off]...))
	}
	for _, sl := range slices {
		first := sl[0] + 8
		if sl[1] == 4 {
			for _, v := range []int32{math.MaxInt32, math.MinInt32, 1 << 20, 0, -1} {
				b := append([]byte(nil), ckpt...)
				binary.LittleEndian.PutUint32(b[first:], uint32(v))
				f.Add(b)
			}
			continue
		}
		for _, v := range []float64{1 << 40, math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			b := append([]byte(nil), ckpt...)
			binary.LittleEndian.PutUint64(b[first:], math.Float64bits(v))
			f.Add(b)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := ReadCheckpointInfo(data)
		// Many ranks cost memory in proportion, as they would for a
		// session built with that shape: the target checks consistency,
		// not capacity. K needs no bound here: the header read takes no
		// more blocks than points, and the payload bounds the points.
		if err != nil || info.P > 8 {
			return
		}
		s, err := NewSessionFromCheckpoint(mpi.NewWorld(info.P), data, cfg)
		if err != nil {
			return
		}
		defer s.Close()
		w := make([]float64, info.N)
		for i := range w {
			w[i] = 1 + float64(i%5)
		}
		if err := s.UpdateWeights(w); err != nil {
			t.Fatalf("weights update on a restored session: %v", err)
		}
		s.Repartition()
	})
}

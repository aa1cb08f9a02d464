package repart

// Header-robustness tests for ReadCheckpointInfo: the serving layer
// sizes worlds from spilled checkpoints it did not produce, so the
// header decode must turn every malformed input — truncations at each
// field, flipped magic/version, absurd shape values — into a typed
// error, never a panic and never a nonsense CheckpointInfo.

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
func validCheckpoint(t *testing.T) []byte {
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

	// Every prefix strictly shorter than the header must fail typed —
	// this walks through every field boundary (0, 4, 8, 12, 16, 20) and
	// every mid-field cut.
	for cut := 0; cut < sessionHeaderLen; cut++ {
		_, err := ReadCheckpointInfo(ckpt[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
		if !errors.Is(err, core.ErrCheckpointCorrupt) && !errors.Is(err, core.ErrCheckpointVersion) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	// The full header alone (payload stripped) is sufficient for the
	// header read.
	if _, err := ReadCheckpointInfo(ckpt[:sessionHeaderLen]); err != nil {
		t.Fatalf("bare header rejected: %v", err)
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
// the point set — or a non-finite value into a rank's resident copy of
// them, or carried state that would make a carried skip unsound — is
// refused at restore, typed as both a corrupt checkpoint and
// geom.ErrNonFinite: the values every other entry point rejects.
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
	// Then the has-partition flag and partition (u64 length + N i32s), the
	// two dirty flags and rank 0's resident record: magic, version and dim
	// (u32 each), the box (two u64-length-prefixed dim-vectors), its point
	// count n (u64), Dim columns and the weights (u64 length + n f64s each).
	prev := weight0 + 8*info.N
	resBox := prev + 1 + 2 + 12
	if ckpt[prev] == 1 {
		resBox += 8 + 4*info.N
	}
	resN := resBox + 2*(8+8*info.Dim)
	n := int(binary.LittleEndian.Uint64(ckpt[resN:]))
	resCoord0 := resN + 8 + 8
	resWeight0 := resCoord0 + info.Dim*(8+8*n)
	for _, off := range []int{resCoord0, resWeight0} {
		if got := binary.LittleEndian.Uint64(ckpt[off-8:]); got != uint64(n) {
			t.Fatalf("resident layout: length prefix %d before offset %d, want %d", got, off, n)
		}
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
		{"Inf resident coordinate", resCoord0, math.Inf(1)},
		{"NaN resident weight", resWeight0, math.NaN()},
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

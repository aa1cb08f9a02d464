package repart

// Session checkpoint/restore: a serialized session captures the global
// point set (current coordinates and weights, including any deltas not
// yet flushed to the residents), the installed partition, and every
// rank's resident record — its bounding box and carried incremental
// bounds — so a restored session's next warm step is bit-identical to
// the step an uninterrupted session would have run (DESIGN.md,
// "Fault-tolerance invariants"). Each point is stored once: restore
// rebuilds every rank's resident columns from the point set. The
// configuration is NOT embedded: the caller passes the same core.Config
// to NewSessionFromCheckpoint, exactly as it did to NewSession (configs
// hold policy, checkpoints hold state).

import (
	"fmt"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// SessionCheckpointVersion is the current session checkpoint format.
const SessionCheckpointVersion = 1

// sessionMagic guards the checkpoint header ("GEOS").
const sessionMagic = 0x47454F53

// CheckpointInfo summarizes a checkpoint header without decoding the
// payload — enough for a caller to build a matching world (P ranks)
// before calling NewSessionFromCheckpoint.
type CheckpointInfo struct {
	Version int
	K       int // number of blocks
	P       int // world size at checkpoint time
	Dim     int // coordinate dimension
	N       int // number of points
}

// ReadCheckpointInfo decodes just the header of a session checkpoint.
func ReadCheckpointInfo(data []byte) (CheckpointInfo, error) {
	return readHeader(core.NewSnapDecoder(data))
}

func readHeader(d *core.SnapDecoder) (CheckpointInfo, error) {
	if m := d.U32(); d.Err() == nil && m != sessionMagic {
		return CheckpointInfo{}, fmt.Errorf("%w: bad session magic %#x", core.ErrCheckpointCorrupt, m)
	}
	v := d.U32()
	if d.Err() == nil && v != SessionCheckpointVersion {
		return CheckpointInfo{}, fmt.Errorf("%w: session checkpoint v%d, want v%d", core.ErrCheckpointVersion, v, SessionCheckpointVersion)
	}
	info := CheckpointInfo{
		Version: int(v),
		K:       int(d.U32()),
		P:       int(d.U32()),
		Dim:     int(d.U32()),
		N:       int(d.U64()),
	}
	if err := d.Err(); err != nil {
		return CheckpointInfo{}, err
	}
	// A session has at most one block per point (NewSession), so K > N
	// is corrupt too: K is then bounded by the payload, as N is below.
	if info.K < 1 || info.P < 1 || info.Dim < 1 || info.Dim > 4096 || info.N < 1 || info.K > info.N {
		return CheckpointInfo{}, fmt.Errorf("%w: header k=%d p=%d dim=%d n=%d",
			core.ErrCheckpointCorrupt, info.K, info.P, info.Dim, info.N)
	}
	// The payload holds at least N·Dim coordinates and P records: a
	// header promising more than the bytes left is corrupt, before any
	// caller sizes a world or a point set from it.
	left := d.Len()
	if info.N > left/8/info.Dim {
		return CheckpointInfo{}, fmt.Errorf("%w: %d points of dim %d exceed the %d payload bytes",
			core.ErrCheckpointCorrupt, info.N, info.Dim, left)
	}
	if left -= 8 * info.N * info.Dim; info.P > left/core.MinSnapshotLen(info.Dim) {
		return CheckpointInfo{}, fmt.Errorf("%w: %d rank records exceed the %d bytes after the coordinates",
			core.ErrCheckpointCorrupt, info.P, left)
	}
	return info, nil
}

// Checkpoint serializes the session's complete restorable state. Purely
// local — no collectives, no mutation — so it can be taken between any
// two verbs, including while weight/coordinate deltas are pending (the
// pending flags travel with the data and the restored session flushes
// them exactly as this one would have).
func (s *Session) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	n := core.NewSnapCounter()
	s.encodeLocked(n)
	e := core.NewSnapEncoder(n.Len())
	s.encodeLocked(e)
	return e.Bytes(), nil
}

// encodeLocked writes the checkpoint — header, point set, partition,
// pending-delta flags, then every rank's resident record — to e.
// Checkpoint runs it twice, counting and then writing, so the stream
// is encoded into one allocation of the size it keeps.
func (s *Session) encodeLocked(e *core.SnapEncoder) {
	e.U32(sessionMagic)
	e.U32(SessionCheckpointVersion)
	e.U32(uint32(s.k))
	e.U32(uint32(s.w.Size()))
	e.U32(uint32(s.ps.Dim))
	e.U64(uint64(s.ps.Len()))
	e.F64s(s.ps.Coords)
	e.Bool(s.ps.Weight != nil)
	if s.ps.Weight != nil {
		e.F64s(s.ps.Weight)
	}
	e.Bool(s.prev != nil)
	if s.prev != nil {
		e.I32s(s.prev)
	}
	e.Bool(s.weightsDirty)
	e.Bool(s.coordsDirty)
	for _, r := range s.res {
		r.Snapshot(e)
	}
}

// decodeCheckpoint decodes a checkpoint into a session without a world
// or a configuration; NewSessionFromCheckpoint attaches both.
func decodeCheckpoint(data []byte) (*Session, error) {
	d := core.NewSnapDecoder(data)
	info, err := readHeader(d)
	if err != nil {
		return nil, err
	}
	s := &Session{k: info.K}
	coords := d.F64s()
	var weights []float64
	if d.Bool() {
		weights = d.F64s()
	}
	if d.Bool() {
		s.prev = d.I32s()
	}
	s.weightsDirty = d.Bool()
	s.coordsDirty = d.Bool()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(coords) != info.N*info.Dim {
		return nil, fmt.Errorf("%w: %d coordinates for n=%d dim=%d",
			core.ErrCheckpointCorrupt, len(coords), info.N, info.Dim)
	}
	if weights != nil && len(weights) != info.N {
		return nil, fmt.Errorf("%w: %d weights for %d points", core.ErrCheckpointCorrupt, len(weights), info.N)
	}
	if s.prev != nil {
		if err := partition.Check(s.prev, info.N, info.K); err != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrCheckpointCorrupt, err)
		}
	}
	// The frame's checksum proves the bytes are the ones written, not
	// that their writer was sound: hold restored values to the rules
	// every other entry point enforces (no NaN/±Inf coordinates, no
	// non-finite or negative weights).
	s.ps = &geom.PointSet{Dim: info.Dim, Coords: coords, Weight: weights}
	if err := s.ps.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrCheckpointCorrupt, err)
	}

	// Each rank's columns are rebuilt from the validated point set under
	// the scatter's rank layout; the records add the box and the carry.
	s.res = make([]*core.Resident, info.P)
	for r := range s.res {
		s.res[r], err = core.RestoreResident(d, partition.View(s.ps, info.P, r))
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		if !s.res[r].SameBox(s.res[0]) {
			return nil, fmt.Errorf("%w: rank %d's bounding box differs from rank 0's", core.ErrCheckpointCorrupt, r)
		}
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", core.ErrCheckpointCorrupt, d.Len())
	}
	return s, nil
}

// NewSessionFromCheckpoint rebuilds a session from Checkpoint bytes on
// the world w, which must have the checkpoint's rank count (use
// ReadCheckpointInfo to size it). cfg must be the configuration the
// checkpointed session ran with; with the same cfg, the restored
// session's next warm step is bit-identical to the step the original
// session would have run — including taking the incremental
// carried-bounds fast path, which travels in the per-rank records.
func NewSessionFromCheckpoint(w *mpi.World, data []byte, cfg core.Config) (*Session, error) {
	s, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("repart: restore: %w", err)
	}
	if err := cfg.Validate(s.k); err != nil {
		return nil, err
	}
	if w.Size() != len(s.res) {
		return nil, fmt.Errorf("repart: restore onto %d ranks, checkpoint has %d (size the world from ReadCheckpointInfo)",
			w.Size(), len(s.res))
	}
	s.w, s.cfg = w, cfg
	return s, nil
}

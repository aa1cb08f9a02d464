package core

// Checkpoint/restore for resident session state: a versioned,
// self-describing binary codec over the global bounding box and the
// cross-run carried k-means state, so a long-lived session can be
// persisted and resumed with its next warm step bit-identical to an
// uninterrupted chain (DESIGN.md, "Fault-tolerance invariants"). The
// points themselves are not part of a record: the session stores its
// point set once, and restore rebuilds each rank's columns from it the
// way Ingest builds them.
//
// Float64 values travel as their IEEE bit patterns (math.Float64bits),
// never through any textual or rounding conversion, which is what makes
// restore exact. Every decode is length-guarded and returns a typed
// error on corrupt, truncated, or wrong-version input — never a panic —
// so checkpoints can be read from untrusted storage.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"geographer/internal/geom"
	"geographer/internal/partition"
)

// ErrCheckpointCorrupt marks checkpoint bytes that do not decode:
// truncated input, impossible lengths, bad magic, internal
// inconsistencies. Matched with errors.Is.
var ErrCheckpointCorrupt = errors.New("core: corrupt checkpoint")

// ErrCheckpointVersion marks a checkpoint whose (valid) header carries a
// version this build does not speak.
var ErrCheckpointVersion = errors.New("core: unsupported checkpoint version")

// ResidentSnapshotVersion is the current resident record format. v3
// dropped the record's point columns, weights and ids (and with them
// its dim and point-count fields): the caller passes the rank's points
// to RestoreResident instead.
const ResidentSnapshotVersion = 3

// residentMagic guards each resident record ("GEOR").
const residentMagic = 0x47454F52

// ---------------------------------------------------------------------
// Primitive codec. SnapEncoder appends little-endian fields to a byte
// slice; SnapDecoder is its sticky-error inverse — after the first
// failure every read returns zero values and Err() reports the cause,
// so record decoders can run straight-line and check once. Slices move
// in bulk: each one is one extension of the stream (or one take from
// it) and a conversion loop, never a per-element append.

// SnapEncoder builds a checkpoint byte stream — or, made by
// NewSnapCounter, only counts the bytes the same calls would write, so
// a writer sizes its buffer by running its own encoding code once dry.
type SnapEncoder struct {
	buf      []byte
	n        int // bytes encoded (or counted) so far
	counting bool
}

// NewSnapEncoder returns an empty encoder with room for size bytes.
// Given the stream's exact length (a counting pass over the same
// calls), encoding allocates once and the stream's capacity equals its
// length.
func NewSnapEncoder(size int) *SnapEncoder { return &SnapEncoder{buf: make([]byte, 0, size)} }

// NewSnapCounter returns an encoder that stores nothing: every call
// only adds its wire size to Len.
func NewSnapCounter() *SnapEncoder { return &SnapEncoder{counting: true} }

// Bytes returns the encoded stream (owned by the encoder; nil for a
// counter).
func (e *SnapEncoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded (or counted) so far.
func (e *SnapEncoder) Len() int { return e.n }

// tail extends the stream by n bytes and returns them for writing; a
// counter only counts them and returns nil.
func (e *SnapEncoder) tail(n int) []byte {
	e.n += n
	if e.counting {
		return nil
	}
	e.buf = slices.Grow(e.buf, n)
	m := len(e.buf)
	e.buf = e.buf[:m+n]
	return e.buf[m:]
}

// U32 appends one uint32.
func (e *SnapEncoder) U32(v uint32) {
	if b := e.tail(4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
	}
}

// U64 appends one uint64.
func (e *SnapEncoder) U64(v uint64) {
	if b := e.tail(8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
	}
}

// Bool appends one flag byte.
func (e *SnapEncoder) Bool(v bool) {
	if b := e.tail(1); b != nil {
		b[0] = 0
		if v {
			b[0] = 1
		}
	}
}

// F64s appends a length-prefixed float64 slice as raw IEEE bits.
func (e *SnapEncoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	if b := e.tail(8 * len(v)); b != nil {
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
	}
}

// Str appends a length-prefixed string.
func (e *SnapEncoder) Str(s string) {
	e.U64(uint64(len(s)))
	copy(e.tail(len(s)), s)
}

// I32s appends a length-prefixed int32 slice.
func (e *SnapEncoder) I32s(v []int32) {
	e.U64(uint64(len(v)))
	if b := e.tail(4 * len(v)); b != nil {
		for i, x := range v {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		}
	}
}

// SnapDecoder reads a checkpoint byte stream.
type SnapDecoder struct {
	data []byte
	err  error
}

// NewSnapDecoder wraps data for decoding (the slice is not copied).
func NewSnapDecoder(data []byte) *SnapDecoder { return &SnapDecoder{data: data} }

// Err returns the first decode failure, or nil.
func (d *SnapDecoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *SnapDecoder) Len() int { return len(d.data) }

// fail records the sticky error (first failure wins).
func (d *SnapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *SnapDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.data) < n {
		d.fail("truncated: need %d bytes, have %d", n, len(d.data))
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

// U32 reads one uint32.
func (d *SnapDecoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads one uint64.
func (d *SnapDecoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool reads one flag byte (any nonzero value other than 1 is corrupt).
func (d *SnapDecoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail("flag byte %d", b[0])
		return false
	}
	return b[0] == 1
}

// sliceLen validates a length prefix against the bytes actually left:
// the guard that keeps a corrupted length from driving a huge
// allocation. elemSize is the wire size of one element.
func (d *SnapDecoder) sliceLen(elemSize int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.data)/elemSize) {
		d.fail("slice length %d exceeds remaining %d bytes", n, len(d.data))
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed float64 slice.
func (d *SnapDecoder) F64s() []float64 {
	n := d.sliceLen(8)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Str reads a length-prefixed string.
func (d *SnapDecoder) Str() string {
	n := d.sliceLen(1)
	if d.err != nil || n == 0 {
		return ""
	}
	return string(d.take(n))
}

// I32s reads a length-prefixed int32 slice.
func (d *SnapDecoder) I32s() []int32 {
	n := d.sliceLen(4)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// ---------------------------------------------------------------------
// Resident record.

// Snapshot appends this rank's resident record to the encoder: the
// global bounding box and — when a previous warm run left them — the
// carried incremental bounds (assignment, ub/lb, the raw shadow,
// Elkan's per-center bounds, final influences, and the centers the
// bounds are valid against). The points are not written: they are a
// function of the session's point set and the rank layout
// (partition.View), which RestoreResident is given. Purely local: no
// communication, no mutation of the resident.
func (r *Resident) Snapshot(e *SnapEncoder) {
	st := &r.st
	e.U32(residentMagic)
	e.U32(ResidentSnapshotVersion)
	// The box travels rather than being refolded from the points: the
	// collective min reduction does not order -0 against +0 the way a
	// single rank's fold does.
	e.F64s(r.bmin)
	e.F64s(r.bmax)

	carry := r.carries()
	e.Bool(carry)
	if !carry {
		return
	}
	e.Str(string(st.carryBounds))
	e.U32(uint32(st.carryK))
	e.I32s(st.A)
	e.F64s(st.ub)
	e.F64s(st.lb)
	e.Bool(st.rlb != nil)
	if st.rlb != nil {
		e.F64s(st.rlb)
	}
	e.Bool(st.lbk != nil)
	if st.lbk != nil {
		e.F64s(st.lbk)
	}
	e.F64s(st.influence)
	e.F64s(st.boundCenters)
}

// carries reports whether Snapshot writes the carried bounds: only a
// complete carry, valid for this point count and center shape, travels.
func (r *Resident) carries() bool {
	st := &r.st
	return st.carryValid && len(st.A) == st.X.Len() && len(st.boundCenters) == st.carryK*r.dim
}

// SameBox reports whether r and o hold bit-identical bounding boxes, as
// the residents of one session do: the box is the global reduction
// every rank receives, and ranks that disagree on it disagree on the
// convergence threshold and so on the collectives they issue.
func (r *Resident) SameBox(o *Resident) bool {
	return slices.EqualFunc(r.bmin, o.bmin, sameBits) && slices.EqualFunc(r.bmax, o.bmax, sameBits)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// MinSnapshotLen returns the size of the smallest record Snapshot
// writes at dimension dim — the frame and the box, no carried block —
// by a counting pass over such a record. A header decoder bounds a
// record count by it.
func MinSnapshotLen(dim int) int {
	e := NewSnapCounter()
	(&Resident{dim: dim, bmin: make([]float64, dim), bmax: make([]float64, dim)}).Snapshot(e)
	return e.Len()
}

// RestoreResident decodes one resident record onto this rank's points,
// pts (partition.View of the session's point set: the same rank layout
// that produced the record). The resident adopts pts' columns as Ingest
// does; the record supplies the bounding box and the carried block,
// which must fit pts. The returned Resident is ready for
// PartitionResident. Every decoded slice is allocated once, at its
// final size, so the decoder's input may be discarded or reused
// afterwards.
func RestoreResident(d *SnapDecoder, pts *partition.Local) (*Resident, error) {
	if m := d.U32(); d.Err() == nil && m != residentMagic {
		return nil, fmt.Errorf("%w: bad resident magic %#x", ErrCheckpointCorrupt, m)
	}
	if v := d.U32(); d.Err() == nil && v != ResidentSnapshotVersion {
		return nil, fmt.Errorf("%w: resident record v%d, want v%d", ErrCheckpointVersion, v, ResidentSnapshotVersion)
	}
	boxMin := d.F64s()
	boxMax := d.F64s()
	carry := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	dim, n := pts.X.Dim, pts.Len()
	if len(boxMin) != dim || len(boxMax) != dim {
		return nil, fmt.Errorf("%w: box of %d/%d coordinates for dim %d", ErrCheckpointCorrupt, len(boxMin), len(boxMax), dim)
	}
	r := newResident(pts, boxMin, boxMax)
	st := &r.st
	if !carry {
		return r, nil
	}
	st.carryBounds = BoundsKind(d.Str())
	st.carryK = int(d.U32())
	st.A = d.I32s()
	st.ub = d.F64s()
	st.lb = d.F64s()
	if d.Bool() {
		st.rlb = d.F64s()
	}
	if d.Bool() {
		st.lbk = d.F64s()
	}
	st.influence = d.F64s()
	ctr := d.F64s()
	if d.Err() != nil {
		return nil, d.Err()
	}
	k := st.carryK
	switch st.carryBounds {
	case BoundsHamerly, BoundsElkan, BoundsNone:
	default:
		return nil, fmt.Errorf("%w: carried bounds kind %q", ErrCheckpointCorrupt, st.carryBounds)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: carried k=%d", ErrCheckpointCorrupt, k)
	}
	if len(st.A) != n || len(st.ub) != n || len(st.lb) != n {
		return nil, fmt.Errorf("%w: carried per-point lengths %d/%d/%d for %d points",
			ErrCheckpointCorrupt, len(st.A), len(st.ub), len(st.lb), n)
	}
	if st.rlb != nil && len(st.rlb) != n {
		return nil, fmt.Errorf("%w: raw shadow of %d values for %d points", ErrCheckpointCorrupt, len(st.rlb), n)
	}
	if st.lbk != nil && len(st.lbk) != n*k {
		return nil, fmt.Errorf("%w: %d Elkan bounds for n=%d k=%d", ErrCheckpointCorrupt, len(st.lbk), n, k)
	}
	if len(st.influence) != k || len(ctr) != k*dim {
		return nil, fmt.Errorf("%w: %d influences / %d center coordinates for k=%d, dim=%d",
			ErrCheckpointCorrupt, len(st.influence), len(ctr), k, dim)
	}
	for i, a := range st.A {
		if a < -1 || int(a) >= k {
			return nil, fmt.Errorf("%w: assignment %d at point %d for k=%d", ErrCheckpointCorrupt, a, i, k)
		}
	}
	// The carried skip test trusts these values: a NaN center would drop
	// out of the drift maximum, a zero influence or a NaN or negative
	// upper bound would shrink ub·influence below the true distance, and
	// either way a point could keep a stale block.
	for i, x := range ctr {
		if !(math.Abs(x) <= math.MaxFloat64) {
			return nil, fmt.Errorf("%w: %w: carried center coordinate %g at index %d",
				ErrCheckpointCorrupt, geom.ErrNonFinite, x, i)
		}
	}
	for b, f := range st.influence {
		if !(f > 0 && f <= math.MaxFloat64) {
			return nil, fmt.Errorf("%w: %w: carried influence %g of block %d",
				ErrCheckpointCorrupt, geom.ErrNonFinite, f, b)
		}
	}
	for i, u := range st.ub {
		if !(u >= 0) {
			return nil, fmt.Errorf("%w: %w: carried upper bound %g at point %d",
				ErrCheckpointCorrupt, geom.ErrNonFinite, u, i)
		}
	}
	st.boundCenters = ctr
	st.carryValid = true
	return r, nil
}

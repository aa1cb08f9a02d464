package serve

// Request decoding: the four request bodies the HTTP API takes are read
// once and decoded as json.Unmarshal decodes them. A fast walk takes the
// canonical shape clients send (json.Marshal's output for these types) —
// one object, member names of printable ASCII matched exactly, number,
// number-array and plain-ASCII string values — and converts each number
// in place with no string per number. Any other body goes to
// json.Unmarshal, so the accept set, the errors and the values are
// encoding/json's (DESIGN.md, "Request decoding";
// FuzzDecodeRequestMatchesEncodingJSON checks it).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
)

// maxBodyBytes bounds request bodies (coordinates dominate; 1<<28 is
// ~16M points in 2D).
const maxBodyBytes = 1 << 28

// request is a body the walk decodes: member decodes the value of the
// member called name, reporting false when name is none of the type's
// field names exactly or the value is not in the canonical shape. The
// walk reaches member through decodeMember's type switch, never through
// the interface, so the decoder it passes stays on the walk's stack.
type request interface {
	member(d *decoder, name []byte) bool
}

// repartitionRequest is the POST …/repartition body.
type repartitionRequest struct {
	Eps float64 `json:"eps"`
}

// weightsRequest is the POST …/weights body.
type weightsRequest struct {
	Weights []float64 `json:"weights"`
}

// coordsRequest is the POST …/coords body.
type coordsRequest struct {
	Coords []float64 `json:"coords"`
}

func (q *createRequest) member(d *decoder, name []byte) bool {
	switch string(name) {
	case "name":
		return d.str(&q.Name)
	case "dim":
		return decodeInt(d, &q.Dim)
	case "coords":
		return d.floats(&q.Coords)
	case "weights":
		return d.floats(&q.Weights)
	case "k":
		return decodeInt(d, &q.K)
	case "processes":
		return decodeInt(d, &q.Processes)
	case "workers":
		return decodeInt(d, &q.Workers)
	case "epsilon":
		return d.float(&q.Epsilon)
	case "seed":
		return decodeInt(d, &q.Seed)
	}
	return false
}

func (q *repartitionRequest) member(d *decoder, name []byte) bool {
	return string(name) == "eps" && d.float(&q.Eps)
}

func (q *weightsRequest) member(d *decoder, name []byte) bool {
	return string(name) == "weights" && d.floats(&q.Weights)
}

func (q *coordsRequest) member(d *decoder, name []byte) bool {
	return string(name) == "coords" && d.floats(&q.Coords)
}

// readRequest reads r's body once, bounded by maxBodyBytes, and decodes
// it into v. A body over the bound is an *http.MaxBytesError (HTTP 413);
// a declared Content-Length over it is refused before reading anything.
func readRequest(w http.ResponseWriter, r *http.Request, v request) error {
	if r.ContentLength > maxBodyBytes {
		return fmt.Errorf("serve: read body: %w", &http.MaxBytesError{Limit: maxBodyBytes})
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		return fmt.Errorf("serve: read body: %w", err)
	}
	if err := decodeRequest(body, v); err != nil {
		return fmt.Errorf("serve: decode body: %w", err)
	}
	return nil
}

// readBody reads rd to EOF into one buffer: sized up front by the
// declared length (ReadFrom keeps MinRead bytes free, so EOF costs no
// regrowth), or grown as it fills when none is declared.
func readBody(rd io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 {
		buf.Grow(int(declared) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(rd)
	return buf.Bytes(), err
}

// decodeRequest decodes body into v, a zero value, as json.Unmarshal
// does: through the walk when body is in the canonical shape, otherwise
// by json.Unmarshal itself over v reset to zero, so a walk that stopped
// part way leaves nothing behind.
func decodeRequest(body []byte, v request) error {
	if walk(body, v) {
		return nil
	}
	reflect.ValueOf(v).Elem().SetZero()
	return json.Unmarshal(body, v)
}

// decoder is the walk's state over one body.
type decoder struct {
	data []byte
	off  int
}

// walk decodes body into v and reports true if body is in the canonical
// shape; on false it has stored some members and body is json.Unmarshal's.
func walk(body []byte, v request) bool {
	d := decoder{data: body}
	if !d.next('{') {
		return false
	}
	if !d.next('}') {
		for {
			name, ok := d.plain()
			if !ok || !d.next(':') || !decodeMember(&d, v, name) {
				return false
			}
			if d.next('}') {
				break
			}
			if !d.next(',') {
				return false
			}
		}
	}
	d.skipSpace()
	return d.off == len(d.data)
}

// decodeMember calls v's member method on its concrete type: a call
// through the interface would move the decoder to the heap, since the
// compiler cannot see which method escapes it.
func decodeMember(d *decoder, v request, name []byte) bool {
	switch q := v.(type) {
	case *createRequest:
		return q.member(d, name)
	case *repartitionRequest:
		return q.member(d, name)
	case *weightsRequest:
		return q.member(d, name)
	case *coordsRequest:
		return q.member(d, name)
	}
	return false
}

func (d *decoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace, reporting whether it was
// there.
func (d *decoder) next(c byte) bool {
	d.skipSpace()
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// plain consumes a string token of printable ASCII without escapes,
// after optional whitespace, and returns its content — which is then
// its own unquoted value.
func (d *decoder) plain() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	start := d.off
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number consumes a number token, after optional whitespace, if it
// follows the JSON number grammar, and returns it. When the token is
// exactly float64(m)/1eF (no exponent, decimal mantissa m ≤ 2^53,
// F ≤ 22 fraction digits) exact is set and v holds that value: both
// operands are exact and one correctly rounded division is ParseFloat's
// result (Clinger's fast path).
func (d *decoder) number() (tok []byte, v float64, exact, ok bool) {
	d.skipSpace()
	data := d.data
	start := d.off
	i := start
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	if i >= len(data) || !isDigit(data[i]) {
		return nil, 0, false, false
	}
	var m uint64
	frac := 0
	if data[i] == '0' {
		i++
	} else {
		for ; i < len(data) && isDigit(data[i]); i++ {
			if m <= 1<<53 {
				m = m*10 + uint64(data[i]-'0')
			}
		}
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			return nil, 0, false, false
		}
		for ; i < len(data) && isDigit(data[i]); i++ {
			if m <= 1<<53 {
				m = m*10 + uint64(data[i]-'0')
			}
			frac++
		}
	}
	exact = m <= 1<<53 && frac < len(pow10)
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		exact = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return nil, 0, false, false
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	d.off = i
	if exact {
		v = float64(m) / pow10[frac]
		if neg {
			v = -v
		}
	}
	return data[start:i], v, exact, true
}

// parseFloat consumes a number token and returns strconv.ParseFloat's
// value for it, through Clinger's fast path where that is exact; a
// token out of float64's range is not taken.
func (d *decoder) parseFloat() (float64, bool) {
	tok, v, exact, ok := d.number()
	if !ok || exact {
		return v, ok
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// float decodes a number member.
func (d *decoder) float(dst *float64) bool {
	v, ok := d.parseFloat()
	if ok {
		*dst = v
	}
	return ok
}

// decodeInt decodes an integer member: the token must pass
// strconv.ParseInt (so 1.0 and 1e3 are not taken) and fit T.
func decodeInt[T int | int64](d *decoder, dst *T) bool {
	tok, _, _, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(T(n)) != n {
		return false
	}
	*dst = T(n)
	return true
}

// str decodes a plain-ASCII string member.
func (d *decoder) str(dst *string) bool {
	s, ok := d.plain()
	if ok {
		*dst = string(s)
	}
	return ok
}

// floats decodes an array of numbers into a new exact-size slice; []
// gives an empty non-nil slice, as in encoding/json. The elements are
// counted before any is parsed, so the slice is allocated once whatever
// the array's length. A repeated member replaces the slice, which
// json.Unmarshal's decode into the old one matches value for value,
// since no element is null.
func (d *decoder) floats(dst *[]float64) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		*dst = []float64{}
		return true
	}
	n, ok := d.count()
	if !ok {
		return false
	}
	out := make([]float64, n)
	for i := range out {
		if i > 0 && !d.next(',') {
			return false
		}
		if out[i], ok = d.parseFloat(); !ok {
			return false
		}
	}
	if !d.next(']') {
		return false
	}
	*dst = out
	return true
}

// count returns the number of elements of the array whose '[' was just
// consumed — one more than its commas before the first ']' — reading
// ahead without consuming anything. Nothing is validated here: the parse
// that follows takes exactly that many numbers or bails. It reports false
// when there is no ']' or when the commas outnumber what a valid array of
// that length can hold, so an element costs at least two bytes of body.
func (d *decoder) count() (int, bool) {
	rest := d.data[d.off:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0, false
	}
	n := bytes.Count(rest[:end], []byte{','}) + 1
	return n, 2*n-1 <= end
}

package serve

// Request decoding: one hand-written reader for the four request bodies
// the HTTP API takes. It reads a body once and walks it once, converting
// each number token in place with strconv — no validating pre-scan, no
// reflection, no string per number. Its contract is encoding/json's: for
// the four request types it accepts and rejects exactly the inputs
// json.Unmarshal does and produces bit-identical values (DESIGN.md,
// "Request decoding"; FuzzDecodeRequestMatchesEncodingJSON checks it).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxBodyBytes bounds request bodies (coordinates dominate; 1<<28 is
// ~16M points in 2D).
const maxBodyBytes = 1 << 28

// maxNestingDepth is encoding/json's bound on open arrays and objects.
const maxNestingDepth = 10000

// request is a body the reader decodes: member decodes the value of the
// member called name (already unescaped) or skips it.
type request interface {
	member(d *decoder, name []byte) error
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

func (q *createRequest) member(d *decoder, name []byte) error {
	switch {
	case nameIs(name, "name"):
		return d.str(&q.Name)
	case nameIs(name, "dim"):
		return decodeInt(d, &q.Dim)
	case nameIs(name, "coords"):
		return d.floats(&q.Coords)
	case nameIs(name, "weights"):
		return d.floats(&q.Weights)
	case nameIs(name, "k"):
		return decodeInt(d, &q.K)
	case nameIs(name, "processes"):
		return decodeInt(d, &q.Processes)
	case nameIs(name, "workers"):
		return decodeInt(d, &q.Workers)
	case nameIs(name, "epsilon"):
		return d.float(&q.Epsilon)
	case nameIs(name, "seed"):
		return decodeInt(d, &q.Seed)
	}
	return d.skipValue()
}

func (q *repartitionRequest) member(d *decoder, name []byte) error {
	if nameIs(name, "eps") {
		return d.float(&q.Eps)
	}
	return d.skipValue()
}

func (q *weightsRequest) member(d *decoder, name []byte) error {
	if nameIs(name, "weights") {
		return d.floats(&q.Weights)
	}
	return d.skipValue()
}

func (q *coordsRequest) member(d *decoder, name []byte) error {
	if nameIs(name, "coords") {
		return d.floats(&q.Coords)
	}
	return d.skipValue()
}

// nameIs reports whether a member name selects field: an exact match
// first, then encoding/json's case folding. Every request's field names
// are distinct under folding, so the two steps pick the same field
// encoding/json's exact-then-folded lookup does.
func nameIs(name []byte, field string) bool {
	return string(name) == field || bytes.EqualFold(name, []byte(field))
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

// decoder is the reader's state over one body.
type decoder struct {
	data  []byte
	off   int
	depth int // open arrays and objects, counted as encoding/json does

	// vals collects one array's elements before they are committed to
	// their field; nulls lists the indices of its null elements.
	vals  *[]float64
	nulls []int
}

// scratchPool recycles the element buffers of decoded arrays, so a body
// costs one exact-size allocation per array whatever its length.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// maxPooledScratch bounds the buffers returned to scratchPool (8 MiB).
const maxPooledScratch = 1 << 20

// decodeRequest decodes body into v with json.Unmarshal's accept set and
// values. A top-level null leaves v unchanged; any other non-object
// top-level value is an error.
func decodeRequest(body []byte, v request) error {
	d := decoder{data: body}
	defer d.release()
	d.skipSpace()
	switch d.peek() {
	case '{':
		if err := d.object(v); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.errType("request object")
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return d.errChar("after top-level value")
	}
	return nil
}

func (d *decoder) release() {
	if d.vals != nil && cap(*d.vals) <= maxPooledScratch {
		scratchPool.Put(d.vals)
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body (a
// NUL byte is invalid everywhere the reader peeks, as is the end).
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
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

var errEOF = errors.New("unexpected end of JSON input")

func (d *decoder) errChar(context string) error {
	if d.off >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

func (d *decoder) errType(into string) error {
	if d.off >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("cannot decode the value at offset %d into %s", d.off, into)
}

// push opens an array or object at the cursor.
func (d *decoder) push() error {
	d.depth++
	if d.depth > maxNestingDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.off)
	}
	d.off++
	return nil
}

// expect consumes c, after optional whitespace.
func (d *decoder) expect(c byte, context string) error {
	d.skipSpace()
	if d.peek() != c {
		return d.errChar(context)
	}
	d.off++
	return nil
}

// object decodes the object at the cursor into v, member by member.
func (d *decoder) object(v request) error {
	if err := d.push(); err != nil {
		return err
	}
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		d.skipSpace()
		if d.peek() != '"' {
			return d.errChar("looking for beginning of object key string")
		}
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		name := raw
		if !plain {
			name = unquoteName(raw)
		}
		if err := d.expect(':', "after object key"); err != nil {
			return err
		}
		d.skipSpace()
		if err := v.member(d, name); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.errChar("after object key:value pair")
		}
	}
}

// scanString consumes the string token at the cursor, validating it as
// encoding/json's scanner does, and returns its content. plain reports
// that the content has neither an escape nor a non-ASCII byte, so it is
// its own unquoted value.
func (d *decoder) scanString() (content []byte, plain bool, err error) {
	data := d.data
	start := d.off + 1
	plain = true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				return nil, false, errEOF
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(data) {
						return nil, false, errEOF
					}
					if !isHex(data[j]) {
						d.off = j
						return nil, false, d.errChar("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.off = i + 1
				return nil, false, d.errChar("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.errChar("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	return nil, false, errEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// unquoteName unescapes a validated string token's content the way
// encoding/json unquotes a member name: escapes decoded, a surrogate pair
// joined, a lone surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func unquoteName(s []byte) []byte {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			e := s[i+1]
			i += 2
			switch e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(s[i+2:])); dec != unicode.ReplacementChar {
							i += 6
							out = utf8.AppendRune(out, dec)
							break
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
			default: // '"', '\\', '/'
				out = append(out, e)
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			i += size
			out = utf8.AppendRune(out, r)
		}
	}
	return out
}

// hex4 decodes four validated hex digits.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// literal consumes the literal word at the cursor.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) {
			return errEOF
		}
		if d.data[d.off] != word[i] {
			return d.errChar("in literal " + word)
		}
		d.off++
	}
	return nil
}

// unknownObject is an object nested in an unknown member: every member
// is skipped.
type unknownObject struct{}

func (unknownObject) member(d *decoder, _ []byte) error { return d.skipValue() }

// skipValue consumes any one value at the cursor — an unknown member's —
// with full validation under the nesting bound.
func (d *decoder) skipValue() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(unknownObject{})
	case c == '[':
		if err := d.push(); err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() == ']' {
			d.off++
			d.depth--
			return nil
		}
		for {
			d.skipSpace()
			if err := d.skipValue(); err != nil {
				return err
			}
			d.skipSpace()
			switch d.peek() {
			case ',':
				d.off++
			case ']':
				d.off++
				d.depth--
				return nil
			default:
				return d.errChar("after array element")
			}
		}
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '-' || isDigit(c):
		_, _, _, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.errChar("looking for beginning of value")
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number consumes the number token at the cursor, checked against the
// JSON number grammar, and returns it. When the token is exactly
// float64(m)/1eF (no exponent, decimal mantissa m ≤ 2^53, F ≤ 22
// fraction digits) exact is set and v holds that value: both operands are
// exact and one correctly rounded division is ParseFloat's result
// (Clinger's fast path).
func (d *decoder) number() (tok []byte, v float64, exact bool, err error) {
	data := d.data
	start := d.off
	i := start
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var m uint64
	frac := 0
	switch {
	case i >= len(data):
		return nil, 0, false, errEOF
	case data[i] == '0':
		i++
	case isDigit(data[i]):
		for ; i < len(data) && isDigit(data[i]); i++ {
			if m <= 1<<53 {
				m = m*10 + uint64(data[i]-'0')
			}
		}
	default:
		d.off = i
		return nil, 0, false, d.errChar("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, 0, false, d.errChar("after decimal point in numeric literal")
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
			d.off = i
			return nil, 0, false, d.errChar("in exponent of numeric literal")
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
	return data[start:i], v, exact, nil
}

// str decodes a string member: null leaves dst unchanged, and a string
// token — validated here — goes through json.Unmarshal, which owns the
// escape and U+FFFD rules.
func (d *decoder) str(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		start := d.off
		if _, _, err := d.scanString(); err != nil {
			return err
		}
		return json.Unmarshal(d.data[start:d.off], dst)
	}
	return d.errType("a string field")
}

// decodeInt decodes an integer member: null leaves dst unchanged, and a
// number token must pass strconv.ParseInt (so 1.0 and 1e3 are errors)
// and fit T.
func decodeInt[T int | int64](d *decoder, dst *T) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.errType("an integer field")
	}
	start := d.off
	tok, _, _, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(T(n)) != n {
		d.off = start
		return d.errType(fmt.Sprintf("an integer field (number %s)", tok))
	}
	*dst = T(n)
	return nil
}

// float decodes a number member: null leaves dst unchanged.
func (d *decoder) float(dst *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.errType("a number field")
	}
	v, err := d.parseFloat()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// parseFloat consumes a number token and returns strconv.ParseFloat's
// value for it, through Clinger's fast path where that is exact.
func (d *decoder) parseFloat() (float64, error) {
	start := d.off
	tok, v, exact, err := d.number()
	if err != nil || exact {
		return v, err
	}
	v, err = strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.off = start
		return 0, d.errType(fmt.Sprintf("a float64 (number %s)", tok))
	}
	return v, nil
}

// floats decodes a []float64 member with encoding/json's slice rules:
// null sets dst to nil, [] to an empty non-nil slice, and any other
// array decodes into the slice already in dst (see commit).
func (d *decoder) floats(dst *[]float64) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.errType("an array field")
	}
	if err := d.push(); err != nil {
		return err
	}
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		d.depth--
		*dst = []float64{}
		return nil
	}
	if d.vals == nil {
		d.vals = scratchPool.Get().(*[]float64)
	}
	vals := (*d.vals)[:0]
	d.nulls = d.nulls[:0]
	for {
		d.skipSpace()
		switch c := d.peek(); {
		case c == '-' || isDigit(c):
			v, err := d.parseFloat()
			if err != nil {
				return err
			}
			vals = append(vals, v)
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			d.nulls = append(d.nulls, len(vals))
			vals = append(vals, 0)
		default:
			return d.errType("a float64 element")
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			*d.vals = vals
			*dst = commit(*dst, vals, d.nulls)
			return nil
		default:
			return d.errChar("after array element")
		}
	}
}

// commit stores an array's elements into s, the slice already in the
// field, as encoding/json's reflective decode does. That decode extends
// s element by element, re-exposing its backing array past len, and a
// null element (held as 0 in vals, its index in nulls) leaves whatever
// the backing array holds there. Its growth keeps the old backing array
// up to cap and zeroes what lies past it, so at every index the backing
// array holds the last value written there or 0, however the capacity
// grew; one exact-size allocation with the same content stands in for
// the element-by-element growth.
func commit(s, vals []float64, nulls []int) []float64 {
	n := len(vals)
	if cap(s) == 0 {
		// A fresh backing array: a null element reads 0, as vals holds.
		out := make([]float64, n)
		copy(out, vals)
		return out
	}
	if n > cap(s) {
		grown := make([]float64, n)
		copy(grown, s[:cap(s)])
		s = grown
	}
	s = s[:n]
	next := 0
	for i, v := range vals {
		if next < len(nulls) && nulls[next] == i {
			next++
			continue
		}
		s[i] = v
	}
	return s
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// The inference endpoints speak one wire shape: {"rows":[[…],…]} in, and
// {"model":…,"version":…,"rows"|"probabilities":[[…],…]} out. Decoding
// and encoding it by reflection cost more CPU than the model itself, so
// this file does both by hand, held to encoding/json by two guarantees:
//
//   - decodeRowsBody accepts exactly the bodies one json.Decoder.Decode
//     (with DisallowUnknownFields) into struct{Rows [][]float64} accepts,
//     yields bit-identical float64s and row structure, and fails with the
//     same status class (413 when the value is cut off by the body limit,
//     400 otherwise). FuzzDecodeRows checks this against encoding/json.
//   - appendResponse writes the bytes json.Encoder.Encode writes for the
//     same response struct. TestEncodeParity checks this.
//
// encoding/json remains the codec of every cold path: error bodies, the
// registry listing, model-dir sync and the client.

// maxPooledBuf caps the size, in bytes, of a buffer handed back to a
// pool, so that one large request cannot pin its buffers for the life of
// the process.
const maxPooledBuf = 1 << 20

// maxNestingDepth is encoding/json's nesting limit; deeper values are a
// syntax error there, so they are here.
const maxNestingDepth = 10000

// errTruncated reports a body that ended inside its JSON value.
var errTruncated = errors.New("unexpected end of JSON input")

// rowsBody is one decoded transform/probabilities request. Its rows lie
// row-major in one flat slice from rowScratch, so a rectangular batch is
// already the staging matrix the kernel reads. A rowsBody comes from
// decodeRowsBody and is handed back with release; its byte buffer holds
// the raw request and is then reused for the response.
type rowsBody struct {
	vals []float64 // row i is vals[ends[i-1]:ends[i]], with ends[-1] = 0
	ends []int
	buf  []byte

	// Decoder state.
	data   []byte
	pos    int
	cut    bool        // the body did not end cleanly: data is a prefix
	layers int         // "rows" keys decoded so far
	nulls  []int       // indices into vals decoded from a null element
	prior  [][]float64 // what earlier "rows" keys left behind (see absorb)
	err    error       // first type error; decoding goes on to check syntax
}

var rowsBodyPool = sync.Pool{New: func() any { return new(rowsBody) }}

// Len returns the number of rows.
func (d *rowsBody) Len() int { return len(d.ends) }

// Row returns row i, a view into the body's flat storage.
func (d *rowsBody) Row(i int) []float64 {
	start := 0
	if i > 0 {
		start = d.ends[i-1]
	}
	return d.vals[start:d.ends[i]]
}

// release returns the body's buffers to their pools. Neither the rows nor
// the buffer may be used afterwards.
func (d *rowsBody) release() {
	if cap(d.vals)*8 <= maxPooledBuf {
		rowScratch.Put(d.vals)
	}
	if cap(d.buf) > maxPooledBuf {
		d.buf = nil
	}
	if cap(d.ends)*8 > maxPooledBuf {
		d.ends = nil
	}
	if cap(d.nulls)*8 > maxPooledBuf {
		d.nulls = nil
	}
	d.vals, d.data, d.prior, d.err = nil, nil, nil, nil
	rowsBodyPool.Put(d)
}

// decodeRowsBody reads body (already bounded by http.MaxBytesReader) and
// decodes it as a rows request holding 1 to maxRows rows. Errors are
// *httpError: 413 when the value does not fit in the byte limit, 400 for
// everything else.
func decodeRowsBody(body io.Reader, maxRows int) (*rowsBody, error) {
	d := rowsBodyPool.Get().(*rowsBody)
	raw := bytes.NewBuffer(d.buf[:0])
	_, readErr := raw.ReadFrom(body)
	data := raw.Bytes()
	d.buf, d.data, d.pos, d.cut, d.layers = data, data, 0, readErr != nil, 0
	// Every number but the first in an array follows a comma, so this
	// sizes the values of a rectangular batch in one go. The cap keeps a
	// body of stray commas from reserving more than a pooled buffer.
	d.vals = rowScratch.Get(min(bytes.Count(data, []byte{','})+1, maxPooledBuf/8))[:0]
	d.ends, d.nulls = d.ends[:0], d.nulls[:0]

	err := d.parse()
	switch {
	case err == errTruncated && readErr != nil:
		// json.Decoder surfaces a read error only once the bytes before it
		// fail to complete a value; so does this.
		d.release()
		var tooLarge *http.MaxBytesError
		if errors.As(readErr, &tooLarge) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest("invalid request body: %v", readErr)
	case err == nil:
		err = d.err
	}
	if err != nil {
		d.release()
		return nil, badRequest("invalid request body: %v", err)
	}
	if d.layers > 1 {
		d.absorb()
		start := 0
		for i, end := range d.ends {
			copy(d.vals[start:end], d.prior[i])
			start = end
		}
	}
	switch n := d.Len(); {
	case n == 0:
		d.release()
		return nil, badRequest("request has no rows")
	case n > maxRows:
		d.release()
		return nil, badRequest("request has %d rows, limit is %d", n, maxRows)
	}
	return d, nil
}

// ---- decoding ----

// parse decodes the top-level value. Bytes after a complete value are
// ignored, as json.Decoder.Decode ignores them.
func (d *rowsBody) parse() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return d.object()
	case 'n': // null decodes to no rows
		err = d.literal("null")
	default:
		d.fail("the body must be a JSON object")
		err = d.skipValue(0)
		if c == '[' {
			return err
		}
	}
	// A scalar ends at the byte after it, or at the end of a body read to
	// the end; a cut-off body might have continued it.
	if err == nil && d.pos == len(d.data) && d.cut {
		return errTruncated
	}
	return err
}

// object decodes the request object: "rows" (matched case-insensitively
// after unescaping, as encoding/json matches field names) and nothing
// else.
func (d *rowsBody) object() error {
	return d.list('}', func(key []byte, escaped bool) error {
		if isRowsKey(key, escaped) {
			return d.rows()
		}
		d.fail("unknown field %q", keyName(key))
		return d.skipValue(1)
	})
}

// rows decodes the value of one "rows" key into vals and ends.
func (d *rowsBody) rows() error {
	if d.layers > 0 {
		d.absorb()
	}
	d.layers++
	d.vals, d.ends, d.nulls = d.vals[:0], d.ends[:0], d.nulls[:0]
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '[':
		return d.list(']', func([]byte, bool) error { return d.row() })
	default:
		d.fail("rows must be an array of rows")
		return d.skipValue(1)
	}
}

// row decodes one row. A null row and an empty row are both zero-length.
func (d *rowsBody) row() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		err = d.literal("null")
	case '[':
		err = d.numbers()
	default:
		d.fail("each row must be an array of numbers")
		err = d.skipValue(2)
	}
	d.ends = append(d.ends, len(d.vals))
	return err
}

// numbers decodes the elements of a row array, the '[' at d.pos. It is
// the hot loop of the decoder, so it walks the array itself instead of
// going through list. A null element decodes as 0 (absorb refines that for
// repeated keys).
func (d *rowsBody) numbers() error {
	d.pos++
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		return nil
	}
	for {
		if c == '-' || isDigit(c) {
			start := d.pos
			if err := d.number(); err != nil {
				return err
			}
			s := d.data[start:d.pos]
			// The string aliases the body only for this call: strconv
			// copies its input into any error it returns.
			v, perr := strconv.ParseFloat(unsafe.String(&s[0], len(s)), 64)
			if perr != nil {
				d.fail("number %s out of range of float64", s)
			}
			d.vals = append(d.vals, v)
		} else {
			if c == 'n' {
				d.nulls = append(d.nulls, len(d.vals))
			} else {
				d.fail("row values must be numbers")
			}
			d.vals = append(d.vals, 0)
			if err := d.skipValue(3); err != nil {
				return err
			}
		}
		if c, err = d.next(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
			if c, err = d.next(); err != nil {
				return err
			}
		case ']':
			d.pos++
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// list consumes the array (closer ']') or object (closer '}') whose
// opening bracket is at d.pos, calling elem once per element with d.pos
// at the element's value; for an object it passes the element's quoted
// key.
func (d *rowsBody) list(closer byte, elem func(key []byte, escaped bool) error) error {
	d.pos++
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == closer {
		d.pos++
		return nil
	}
	for {
		var key []byte
		var escaped bool
		if closer == '}' {
			if c != '"' {
				return d.syntax("looking for beginning of object key string")
			}
			if key, escaped, err = d.str(); err != nil {
				return err
			}
			if c, err = d.next(); err != nil {
				return err
			}
			if c != ':' {
				return d.syntax("after object key")
			}
			d.pos++
		}
		if err := elem(key, escaped); err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		switch {
		case c == ',':
			d.pos++
			if c, err = d.next(); err != nil {
				return err
			}
		case c == closer:
			d.pos++
			return nil
		case closer == '}':
			return d.syntax("after object key:value pair")
		default:
			return d.syntax("after array element")
		}
	}
}

// absorb folds the current "rows" layer into prior the way encoding/json
// decodes a repeated key into the slice an earlier one filled: row i
// reuses row i's backing array, so a null element keeps the value an
// earlier key left at that index (even past a shorter length in between),
// while a null or empty row, or a null or empty rows array, discards it.
// Rows past the new length stay in memory for a later key.
func (d *rowsBody) absorb() {
	if len(d.ends) == 0 {
		d.prior = nil
		return
	}
	for len(d.prior) < len(d.ends) {
		d.prior = append(d.prior, nil)
	}
	nulls, start := d.nulls, 0
	for i, end := range d.ends {
		row := d.vals[start:end]
		mem := d.prior[i]
		if len(row) == 0 {
			mem = nil
		} else if len(mem) < len(row) {
			mem = append(mem, make([]float64, len(row)-len(mem))...)
		}
		for j, v := range row {
			if len(nulls) > 0 && nulls[0] == start+j {
				nulls = nulls[1:]
				continue
			}
			mem[j] = v
		}
		d.prior[i] = mem
		start = end
	}
}

// skipValue validates and skips any JSON value nested depth levels deep.
func (d *rowsBody) skipValue(depth int) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch {
	case c == '{' || c == '[':
		if depth == maxNestingDepth {
			return d.syntax("exceeded max depth")
		}
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		return d.list(closer, func([]byte, bool) error { return d.skipValue(depth + 1) })
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || isDigit(c):
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.syntax("looking for beginning of value")
	}
}

// next skips whitespace and returns the byte at d.pos without consuming
// it, or errTruncated at the end of the data.
func (d *rowsBody) next() (byte, error) {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, errTruncated
}

// number consumes the JSON number at d.pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *rowsBody) number() (err error) {
	data, i := d.data, d.pos
	if data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if i, err = d.digits(i, "in numeric literal"); err != nil {
		return err
	}
	if i < len(data) && data[i] == '.' {
		if i, err = d.digits(i+1, "after decimal point in numeric literal"); err != nil {
			return err
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i, err = d.digits(i, "in exponent of numeric literal"); err != nil {
			return err
		}
	}
	d.pos = i
	return nil
}

// digits consumes the run of digits at i, which must hold at least one,
// and returns the index after it.
func (d *rowsBody) digits(i int, ctx string) (int, error) {
	data := d.data
	if i == len(data) {
		return i, errTruncated
	}
	if !isDigit(data[i]) {
		d.pos = i
		return i, d.syntax(ctx)
	}
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i, nil
}

// str consumes the string at d.pos and returns it, quotes included, and
// whether it contains escapes.
func (d *rowsBody) str() (quoted []byte, escaped bool, err error) {
	data, start := d.data, d.pos
	for i := start + 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start : i+1], escaped, nil
		case c == '\\':
			escaped = true
			if i++; i == len(data) {
				return nil, false, errTruncated
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(data) {
						return nil, false, errTruncated
					}
					if !isHex(data[i]) {
						d.pos = i
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				d.pos = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntax("in string literal")
		}
	}
	return nil, false, errTruncated
}

// literal consumes lit, whose first byte the caller has seen at d.pos.
func (d *rowsBody) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos == len(d.data) {
			return errTruncated
		}
		if d.data[d.pos] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// syntax reports the byte at d.pos as invalid.
func (d *rowsBody) syntax(ctx string) error {
	return fmt.Errorf("invalid character %q at offset %d %s", d.data[d.pos], d.pos, ctx)
}

// fail records a type error. Like encoding/json, decoding carries on, so
// that a syntax error or a cut-off body later in the value still decides
// the response.
func (d *rowsBody) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// isRowsKey reports whether the quoted object key names the rows field:
// "rows" after unescaping, compared the way encoding/json matches field
// names (exactly, else under Unicode case folding, so "ROWS" and "rowſ"
// match too).
func isRowsKey(quoted []byte, escaped bool) bool {
	if !escaped {
		return bytes.EqualFold(quoted[1:len(quoted)-1], []byte("rows"))
	}
	return strings.EqualFold(keyName(quoted), "rows")
}

// keyName unescapes a validated, quoted object key. Keys with escapes
// never occur in ordinary traffic, so this leaves them to encoding/json,
// which defines how they unescape (invalid UTF-8 and lone surrogates
// become U+FFFD).
func keyName(quoted []byte) string {
	var name string
	_ = json.Unmarshal(quoted, &name) // cannot fail: str validated the string
	return name
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// ---- encoding ----

// Response fields of the two inference endpoints.
const (
	transformField     = "rows"
	probabilitiesField = "probabilities"
)

// appendResponse appends the JSON response
//
//	{"model":<name>,"version":<v>,"<field>":[[…],…]}\n
//
// for the row-major matrix vals of the given width, byte for byte as
// json.Encoder encodes transformResponse or probabilitiesResponse. A
// non-finite value, which encoding/json refuses, is a 400 naming its row;
// nothing has been written to the client at that point.
func appendResponse(b []byte, e *Entry, field string, vals []float64, width int) ([]byte, error) {
	b = append(b, `{"model":`...)
	b = append(b, e.quotedName()...)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, int64(e.Version), 10)
	b = append(b, `,"`...)
	b = append(b, field...)
	b = append(b, `":[`...)
	for i := 0; i*width < len(vals); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range vals[i*width : (i+1)*width] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, badRequest("row %d: the result is not finite; the input is out of the model's numeric range", i)
			}
			if j > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	return append(b, "]}\n"...), nil
}

// appendFloat appends a finite v as encoding/json writes a float64: the
// shortest round-trip digits, in 'f' format for 1e-6 ≤ |v| < 1e21 (and
// zero) and otherwise in 'e' format with a one-digit negative exponent
// unpadded (e-07 → e-7).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// writeBody sends a JSON 200 response encoded by appendResponse.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

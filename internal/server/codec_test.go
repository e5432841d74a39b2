package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mat"
)

// decodeRowsReference is the request decoder the server used before the
// hand-written codec: one json.Decoder.Decode with DisallowUnknownFields,
// then the row-count checks. FuzzDecodeRows holds decodeRowsBody to it.
func decodeRowsReference(body io.Reader, maxRows int) ([][]float64, int) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req rowsRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge
		}
		return nil, http.StatusBadRequest
	}
	if len(req.Rows) == 0 || len(req.Rows) > maxRows {
		return nil, http.StatusBadRequest
	}
	return req.Rows, http.StatusOK
}

// FuzzDecodeRows checks decodeRowsBody against encoding/json on arbitrary
// bodies and byte limits (see checkDecodeParity).
func FuzzDecodeRows(f *testing.F) {
	for _, seed := range []string{
		`{"rows":[[1,2,3],[4,5,6]]}`,
		` {"rows" : [ [ 1 , -2.5e-3 ] , [ 0.1 , 1E+2 ] ] } `,
		"{\n\t\"rows\":[[1]]\r\n}",
		// Field names match under case folding and after unescaping.
		`{"ROWS":[[1,2]]}`,
		`{"Rows":[[1,2]]}`,
		`{"rowſ":[[1,2]]}`,
		`{"r\u006fws":[[1,2]]}`,
		`{"\u0052\u004FWS":[[1,2]]}`,
		`{"row\u017f":[[1,2]]}`,
		`{"rows\u0000":[[1,2]]}`,
		`{"ro\ud800ws":[[1,2]]}`,
		// Repeated keys decode into what the earlier ones left.
		`{"rows":[[1,2,3]],"rows":[[4]]}`,
		`{"rows":[[1,2,3]],"rows":[[5]],"rows":[[null,null,null]]}`,
		`{"rows":[[1,2],[3,4]],"rows":[[9]],"rows":[[null],[null,null]]}`,
		`{"rows":[[1,2]],"rows":[],"rows":[[null,null]]}`,
		`{"rows":[[1,2]],"rows":null,"rows":[[null,null]]}`,
		`{"rows":[[1,2]],"rows":[null],"rows":[[null,null]]}`,
		`{"rows":[[1,2]],"rows":[[]],"rows":[[null,null]]}`,
		`{"rows":[[1,2]],"ROWS":[[3,null]]}`,
		// Nulls, empties and the row-count checks.
		`{"rows":null}`,
		`{"rows":[null]}`,
		`{"rows":[[1],null]}`,
		`{"rows":[[1,null,3]]}`,
		`{"rows":[]}`,
		`{"rows":[[]]}`,
		`{}`,
		`{"rows":[[1],[2],[3],[4],[5]]}`,
		// Numbers.
		`{"rows":[[-0]]}`,
		`{"rows":[[1e400]]}`,
		`{"rows":[[-1e400]]}`,
		`{"rows":[[1e-400]]}`,
		`{"rows":[[01]]}`,
		`{"rows":[[1.]]}`,
		`{"rows":[[+1]]}`,
		`{"rows":[[.5]]}`,
		`{"rows":[[1e]]}`,
		`{"rows":[[1e+]]}`,
		`{"rows":[[-]]}`,
		`{"rows":[[5e-324,2.2250738585072014e-308,1.7976931348623157e308,0.1,1e21,1e-7]]}`,
		// Unknown fields and type errors.
		`{"rows":[[1]],"x":1}`,
		`{"rowz":[[1,2,3]]}`,
		`{"x":{"y":[1,{"z":null}]},"rows":[[1]]}`,
		`{"rows":[["1"]]}`,
		`{"rows":[[true]]}`,
		`{"rows":[[[1]]]}`,
		`{"rows":[{"a":1}]}`,
		`{"rows":{"a":1}}`,
		`{"rows":1}`,
		`{"\ud83d\ude00":1}`,
		// Trailing bytes after the object are ignored.
		`{"rows":[[1,2]]} trailing garbage`,
		`{"rows":[[1]]}{"rows":[[2]]}`,
		`{"rows":[[1]]}]`,
		// Malformed.
		``,
		`   `,
		`null`,
		`nul`,
		`1`,
		`"x"`,
		`[]`,
		`true`,
		"\xef\xbb\xbf{\"rows\":[[1]]}",
		`{"rows":[[1]],}`,
		`{"rows":[[1],]}`,
		`{"rows":[[1,]]}`,
		`{"rows":[[1]]`,
		`{"rows":[[1]`,
		`{"rows"[[1]]}`,
		`{rows:[[1]]}`,
		"{\"ro\nws\":[[1]]}",
		`{"rows\x":[[1]]}`,
		`{"rows\u12":[[1]]}`,
		`{"rows":[[nan]]}`,
		`{"rows":[[NaN]]}`,
		`{"rows":[[Infinity]]}`,
	} {
		f.Add([]byte(seed), uint16(0))
	}
	// Byte limits: a value complete within the limit is accepted whatever
	// follows; one the limit cuts off is a 413 unless a syntax error comes
	// first.
	f.Add([]byte(`{"rows":[[1,2]]} and more`), uint16(16))
	f.Add([]byte(`{"rows":[[1,2]]} and more`), uint16(15))
	f.Add([]byte(`{"rows":[["x"],[1]]}`), uint16(12))
	f.Add([]byte(`{"rows":[[x],[1]]}`), uint16(12))
	f.Add([]byte(`null `), uint16(4))
	f.Add([]byte(`null`), uint16(4))
	f.Add([]byte(`nul`), uint16(2))
	f.Add([]byte(`12 `), uint16(2))
	f.Add([]byte(`"ab" `), uint16(4))
	f.Add([]byte(`   {}`), uint16(2))

	f.Fuzz(checkDecodeParity)
}

// TestDecodeRowsNestingLimit runs the parity check on values at and just
// past encoding/json's nesting limit, with byte limits that cut them off
// right after the deepest bracket: past the limit is a syntax error (400)
// even when cut off, at the limit a cut-off value is a 413. (These bodies
// are too big to be useful fuzz seeds.)
func TestDecodeRowsNestingLimit(t *testing.T) {
	for _, depth := range []int{maxNestingDepth, maxNestingDepth + 1} {
		for _, prefix := range []string{"", `{"x":`, `{"rows":[[`} {
			body := prefix + strings.Repeat("[", depth) + "]"
			checkDecodeParity(t, []byte(body), uint16(len(body)-1))
			checkDecodeParity(t, []byte(body), 0)
		}
	}
}

// checkDecodeParity decodes body under a byte limit (0 means the 8 MiB
// default) with decodeRowsBody and with encoding/json, and fails unless
// both make the same accept/reject decision with the same status class
// and, on acceptance, the same row structure with bit-identical float64s.
func checkDecodeParity(t *testing.T, body []byte, limit uint16) {
	const maxRows = 4
	maxBytes := int64(limit)
	if maxBytes == 0 {
		maxBytes = 8 << 20
	}
	reader := func() io.Reader {
		return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBytes)
	}
	want, wantStatus := decodeRowsReference(reader(), maxRows)
	got, err := decodeRowsBody(reader(), maxRows)
	status := http.StatusOK
	if err != nil {
		var he *httpError
		if !errors.As(err, &he) {
			t.Fatalf("%q: error %v is not an httpError", body, err)
		}
		status = he.status
	}
	if status != wantStatus {
		t.Fatalf("%.200q (limit %d): status %d (%v), encoding/json gives %d", body, maxBytes, status, err, wantStatus)
	}
	if err != nil {
		return
	}
	defer got.release()
	if got.Len() != len(want) {
		t.Fatalf("%q: %d rows, encoding/json gives %d", body, got.Len(), len(want))
	}
	for i, w := range want {
		g := got.Row(i)
		if len(g) != len(w) {
			t.Fatalf("%q: row %d has %d values, encoding/json gives %d", body, i, len(g), len(w))
		}
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%q: row %d value %d is %v, encoding/json gives %v", body, i, j, g[j], w[j])
			}
		}
	}
}

// splitRows views a row-major matrix as rows.
func splitRows(vals []float64, width int) [][]float64 {
	rows := make([][]float64, len(vals)/width)
	for i := range rows {
		rows[i] = vals[i*width : (i+1)*width]
	}
	return rows
}

// encodeReference is the response encoder the server used before the
// hand-written codec: json.NewEncoder(…).Encode of the response struct.
func encodeReference(t *testing.T, e *Entry, field string, vals []float64, width int) []byte {
	t.Helper()
	var v any = transformResponse{Model: e.Name, Version: e.Version, Rows: splitRows(vals, width)}
	if field == probabilitiesField {
		v = probabilitiesResponse{Model: e.Name, Version: e.Version, Probabilities: splitRows(vals, width)}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeParity checks appendResponse byte for byte against
// encoding/json on float64 format boundaries, random finite bit patterns
// and model names that need escaping.
func TestEncodeParity(t *testing.T) {
	boundaries := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 1e20,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), -1e21, -math.Nextafter(1e21, 0),
		1e-7, 1e-10, 1e-100, 1e22, 1e100,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(12))
	random := make([]float64, 0, 17*177)
	for len(random) < cap(random) {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			random = append(random, v)
		}
	}
	names := []string{"credit", "<script>&", "naïve-模型", "a\u2028b\u2029", "bad\xffutf8", `q"uote\`, "tab\tnew\nline"}
	for _, name := range names {
		for _, field := range []string{transformField, probabilitiesField} {
			for _, c := range []struct {
				vals  []float64
				width int
			}{{boundaries, 1}, {boundaries[:27], 3}, {random, 17}, {random[:5], 5}} {
				e := &Entry{Name: name, Version: 7}
				got, err := appendResponse(nil, e, field, c.vals, c.width)
				if err != nil {
					t.Fatal(err)
				}
				if want := encodeReference(t, e, field, c.vals, c.width); !bytes.Equal(got, want) {
					t.Fatalf("name %q, %s, width %d:\n got %s\nwant %s", name, field, c.width, got, want)
				}
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vals := []float64{1, 2, 3, 4, bad, 6}
		_, err := appendResponse(nil, &Entry{Name: "m", Version: 1}, transformField, vals, 2)
		var he *httpError
		if !errors.As(err, &he) || he.status != http.StatusBadRequest || !strings.Contains(he.msg, "row 2") {
			t.Errorf("value %v: err = %v, want a 400 naming row 2", bad, err)
		}
	}
}

// TestInferenceResponsesMatchEncodingJSON checks whole response bodies of
// both transform paths (micro-batched single row, staged batch) and of
// probabilities against encoding/json renderings of the kernel's output.
func TestInferenceResponsesMatchEncodingJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	entry, ok := s.Registry().Get("hiring")
	if !ok {
		t.Fatal("hiring not loaded")
	}
	kern, err := entry.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{0.1, -2, 3.5, 1e-7, 4}, {0, 0, 0, 0, 0}, {1e3, -1e3, 7, 0.25, 1.0 / 3}}
	for _, n := range []int{1, len(rows)} {
		x := mat.FromRows(rows[:n])
		want := mat.NewDense(n, kern.Dims())
		if err := kern.TransformInto(want, x, 1); err != nil {
			t.Fatal(err)
		}
		probs := make([]float64, n*kern.K())
		for i := 0; i < n; i++ {
			if err := kern.ProbabilitiesInto(probs[i*kern.K():(i+1)*kern.K()], rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			path, field string
			vals        []float64
			width       int
		}{
			{"transform", transformField, want.Data(), kern.Dims()},
			{"probabilities", probabilitiesField, probs, kern.K()},
		} {
			resp, body := postJSON(t, ts.URL+"/v1/models/hiring/"+c.path, rowsRequest{Rows: rows[:n]})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s, %d rows: status %d: %s", c.path, n, resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", c.path, ct)
			}
			if ref := encodeReference(t, entry, c.field, c.vals, c.width); !bytes.Equal(body, ref) {
				t.Errorf("%s, %d rows:\n got %s\nwant %s", c.path, n, body, ref)
			}
		}
	}
}

// TestNonFiniteOutputIs400 is the regression test for finite inputs whose
// result overflows: encoding/json cannot encode NaN/Inf, and the status
// used to be sent before encoding failed, answering 200 with an empty
// body. Both transform paths and probabilities now answer 400 naming the
// row.
func TestNonFiniteOutputIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := []float64{1e308, -1e308, 1e308}
	for _, c := range []struct {
		name, path string
		rows       [][]float64
		row        int
	}{
		{"micro-batched transform", "transform", [][]float64{huge}, 0},
		{"batch transform", "transform", [][]float64{{1, 2, 3}, huge}, 1},
		{"probabilities", "probabilities", [][]float64{{1, 2, 3}, huge}, 1},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/models/credit/"+c.path, rowsRequest{Rows: c.rows})
		var er errorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil ||
			!strings.Contains(er.Error, fmt.Sprintf("row %d:", c.row)) {
			t.Errorf("%s: status %d, body %q; want 400 naming row %d", c.name, resp.StatusCode, body, c.row)
		}
	}
}

// TestServeHTTPTransformAllocs is the allocation regression guard for the
// serving hot path: one 64-row × 17-feature transform through the full
// handler stack (instrumentation, admission, decode, kernel, encode).
func TestServeHTTPTransformAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(10, 17))
	s, err := New(Config{ModelDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 17)
		for j := range rows[i] {
			rows[i][j] = float64(i+j) * 0.01
		}
	}
	payload, err := json.Marshal(rowsRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}

	// Requests and recorders are built before counting, with room for the
	// response, so only the server's allocations are measured.
	const runs, warm = 100, 10
	reqs := make([]*http.Request, runs+1+warm)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/models/m/transform", bytes.NewReader(payload))
		recs[i] = httptest.NewRecorder()
		recs[i].Body = bytes.NewBuffer(make([]byte, 0, 64<<10))
	}
	h := s.Handler()
	next := 0
	serve := func() {
		h.ServeHTTP(recs[next], reqs[next])
		next++
	}
	for i := 0; i < warm; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(runs, serve)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if allocs > 80 {
		t.Errorf("64-row transform allocates %v/request, want ≤ 80", allocs)
	}
	t.Logf("%v allocs/request", allocs)
}

package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"memfwd/internal/report"
)

// opBodySeeds are /op bodies at and around the edge of the codec's
// canonical subset.
var opBodySeeds = []string{
	// Canonical.
	`{"op":"malloc","size":16}`,
	`{"op":"relocate","addr":268435456,"words":2}`,
	`{"ops":[{"op":"store","addr":268435456,"value":7},{"op":"load","addr":268435456}]}`,
	" {\t\"ops\" : [ {\"op\" :\"digest\"} ,{ } ]\r\n}\n",
	`{"ops":[]}`,
	`{}`,
	`{"op":""}`,
	`{"op":"load","addr":0}`,
	`{"op":"relocate","addr":1,"words":9223372036854775807}`,
	`{"op":"load","addr":18446744073709551615}`,
	// Case-variant and unknown keys.
	`{"OP":"malloc","Size":16}`,
	`{"op":"malloc","size":16,"extra":1}`,
	// Escapes in keys and values.
	`{"o\u0070":"malloc","size":16}`,
	`{"op":"mall\u006fc","size":16}`,
	`{"op":"mal\"loc"}`,
	"{\"op\":\"mall\xffoc\"}",
	`{"op":"bogus"}`,
	// Bytes after the first value.
	`{"op":"digest"}garbage`,
	`{"op":"digest"}{"op":"bogus"}`,
	`{"op":"digest"}}`,
	// Numbers outside the subset.
	`{"op":"malloc","size":16.0}`,
	`{"op":"load","addr":-8}`,
	`{"op":"malloc","size":1e3}`,
	`{"op":"malloc","size":016}`,
	`{"op":"malloc","size":-0}`,
	`{"op":"load","addr":18446744073709551616}`,
	`{"op":"load","addr":99999999999999999999}`,
	`{"op":"relocate","addr":1,"words":9223372036854775808}`,
	`{"op":"malloc","size":"16"}`,
	// Nulls.
	`{"op":null}`,
	`{"ops":null}`,
	`{"op":"load","addr":null}`,
	`{"ops":[null,{"op":"digest"}]}`,
	`null`,
	// Duplicate keys; a repeated ops decodes into the first array's
	// elements without zeroing them.
	`{"op":"load","op":"store"}`,
	`{"ops":[{"op":"load","addr":8}],"ops":[{"size":16}]}`,
	`{"ops":[{"op":"load","addr":8},{"op":"free"}],"ops":[{"size":16}]}`,
	`{"ops":[{"op":"load","addr":8,"addr":16}]}`,
	// Nesting deeper than one level.
	`{"ops":[{"ops":[{"op":"digest"}]}]}`,
	`{"ops":[{"op":"digest","ops":[]}]}`,
	// Malformed.
	``,
	` `,
	`{`,
	`{"op":"malloc"`,
	`{"op":"digest",}`,
	`{"ops":[{"op":"digest"},]}`,
	`{"op" "digest"}`,
	`[]`,
	`"digest"`,
	`op=digest`,
}

// opResultsFrom turns fuzz bytes into a result slice: per result, one
// mask byte picks the set fields and each set number takes the next
// eight bytes (fewer at the end).
func opResultsFrom(data []byte) []opResult {
	results := make([]opResult, 0, len(data)/4)
	next := func() uint64 {
		var b [8]byte
		n := copy(b[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(b[:])
	}
	for len(data) > 0 {
		mask := data[0]
		data = data[1:]
		var r opResult
		if mask&1 != 0 {
			r.Addr = next()
		}
		if mask&2 != 0 {
			r.Value = next()
		}
		r.FBit = mask&4 != 0
		if mask&8 != 0 {
			r.Target = next()
		}
		results = append(results, r)
	}
	return results
}

// FuzzOpRequest holds the /op codec to encoding/json, its fallback and
// reference: any body decodes to the same batch, or fails with the
// same error text and status, as a plain json.Decoder into opRequest,
// also when the read was cut short by the size cap, and whether the
// batch is gathered into no array or into a pooled one that still
// holds a finished request's ops; and any result slice's reply is
// report.WriteJSON's bytes.
func FuzzOpRequest(f *testing.F) {
	for i, body := range opBodySeeds {
		f.Add([]byte(body), []byte{byte(i), 1, 2, 3, 4, 5, 6, 7, 8, 0x0f, 0xff})
	}
	f.Add([]byte(`{"op":"digest"}`), []byte{})
	f.Add([]byte(`{"op":"digest"}`), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, body, resultBytes []byte) {
		cut := &http.MaxBytesError{Limit: maxBodyBytes}
		for _, readErr := range []error{nil, cut} {
			var rd io.Reader = bytes.NewReader(body)
			if readErr != nil {
				rd = io.MultiReader(rd, errReader{readErr})
			}
			var want opRequest
			wantErr := json.NewDecoder(rd).Decode(&want)
			pooled := []opRequest{{Op: "free", Addr: 8, Size: 16, Value: 7, Words: 2}, {Op: "digest"}, {}}
			for _, batch := range [][]opRequest{nil, pooled[:0], pooled[:1]} {
				got, err := decodeOpBody(body, readErr, batch)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || bodyErrStatus(err) != bodyErrStatus(wantErr) {
					t.Fatalf("body %q (read error %v): error %v, want %v", body, readErr, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("body %q (read error %v, pooled %v): decoded %#v, want %#v", body, readErr, batch, got, want)
				}
			}
		}

		results := opResultsFrom(resultBytes)
		var want bytes.Buffer
		if err := report.WriteJSON(&want, map[string]any{"results": results}); err != nil {
			t.Fatal(err)
		}
		if got := appendOpReply(nil, results, false); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("batch reply for %+v:\n%s\nwant\n%s", results, got, want.Bytes())
		}
		if len(results) == 0 {
			return
		}
		want.Reset()
		if err := report.WriteJSON(&want, results[0]); err != nil {
			t.Fatal(err)
		}
		if got := appendOpReply(nil, results, true); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("single reply for %+v:\n%s\nwant\n%s", results[0], got, want.Bytes())
		}
	})
}

// bodyErrStatus is the status writeBodyErr answers err with (200 for
// no error).
func bodyErrStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	rec := httptest.NewRecorder()
	writeBodyErr(rec, err)
	return rec.Code
}

// TestOpCodecAllocs pins the fast path: parsing a canonical 32-op batch
// into a pooled array allocates nothing, and appending its reply
// allocates the output buffer and nothing else.
func TestOpCodecAllocs(t *testing.T) {
	ops := make([]opRequest, 32)
	results := make([]opResult, 32)
	for i := range ops {
		addr := uint64(0x1000_0000 + 8*i)
		switch i % 4 {
		case 0:
			ops[i] = opRequest{Op: "store", Addr: addr, Value: uint64(i) << 40}
		case 1:
			ops[i] = opRequest{Op: "load", Addr: addr}
			results[i] = opResult{Value: uint64(i) << 40}
		case 2:
			ops[i] = opRequest{Op: "malloc", Size: 512}
			results[i] = opResult{Addr: addr}
		case 3:
			ops[i] = opRequest{Op: "relocate", Addr: addr, Words: 4}
			results[i] = opResult{Target: 0x4_0000_0000 + addr}
		}
	}
	body, err := json.Marshal(opRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if req, ok := parseOpRequest(body, nil); !ok || !reflect.DeepEqual(req.Ops, ops) {
		t.Fatalf("canonical batch: ok=%v, decoded %+v", ok, req.Ops)
	}
	var pooled []opRequest
	if n := testing.AllocsPerRun(100, func() {
		req, _ := parseOpRequest(body, pooled)
		pooled = req.Ops
	}); n != 0 {
		t.Errorf("parsing a 32-op batch into a pooled array: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { appendOpReply(nil, results, false) }); n != 1 {
		t.Errorf("appending a 32-result reply: %v allocs, want 1 (the output buffer)", n)
	}
}

// TestOpBuffersPooling: readOpRequest gathers each batch into the
// pooled array, an empty ops array stays a non-nil batch and a single
// op a batch of one, no op of an earlier request shows through, and
// buffers whose batch or results outgrew maxPooledBytes stay out of the
// pool.
func TestOpBuffersPooling(t *testing.T) {
	b := new(opBuffers)
	read := func(body string) ([]opRequest, bool) {
		t.Helper()
		r := httptest.NewRequest("POST", "/sessions/s-1/op", strings.NewReader(body))
		batch, single, ok := readOpRequest(httptest.NewRecorder(), r, b)
		if !ok {
			t.Fatalf("body %q rejected", body)
		}
		return batch, single
	}
	first, _ := read(`{"ops":[{"op":"store","addr":8,"value":3},{"op":"relocate","addr":16,"words":2},{"op":"digest"}]}`)
	if len(first) != 3 {
		t.Fatalf("batch %+v", first)
	}
	for _, tc := range []struct {
		body   string
		want   []opRequest
		single bool
	}{
		{`{"ops":[]}`, []opRequest{}, false},
		{`{"op":"free"}`, []opRequest{{Op: "free"}}, true},
		{`{"ops":[{"op":"load"},{}]}`, []opRequest{{Op: "load"}, {}}, false},
		{`{}`, []opRequest{{}}, true},
	} {
		batch, single := read(tc.body)
		if batch == nil || !reflect.DeepEqual(batch, tc.want) || single != tc.single {
			t.Fatalf("body %q: batch %#v (single %v), want %#v (single %v)", tc.body, batch, single, tc.want, tc.single)
		}
		if &batch[:1][0] != &first[0] {
			t.Fatalf("body %q: batch left the pooled array", tc.body)
		}
	}
	if !b.fits() {
		t.Fatal("small buffers do not fit the pool")
	}
	big := *b
	big.ops = make([]opRequest, 0, maxPooledBytes/int(unsafe.Sizeof(opRequest{}))+1)
	if big.fits() {
		t.Error("an oversized batch array fits the pool")
	}
	big = *b
	big.results = make([]opResult, 0, maxPooledBytes/int(unsafe.Sizeof(opResult{}))+1)
	if big.fits() {
		t.Error("an oversized results array fits the pool")
	}
}

// TestOpHTTPEdgeCases sends edge-case /op bodies over real HTTP, each to
// a fresh raw session, and pins the status and reply bytes: the codec
// answers every body as encoding/json decoding did, except the empty
// batch, which is a batch of no ops rather than one op with no name.
func TestOpHTTPEdgeCases(t *testing.T) {
	sv := startServer(t, Config{Shards: 1})
	const (
		mallocReply = "{\n  \"addr\": 268435456\n}\n"
		digestReply = "{\n  \"value\": 14695981039346656037\n}\n"
	)
	bad := func(msg string) string {
		b, _ := json.MarshalIndent(map[string]string{"error": msg}, "", "  ")
		return string(b) + "\n"
	}
	emptyOpErr := bad(`op 0: unknown op ""`)
	pastCap := `{"ops":[` + strings.Repeat(`{"op":"digest"},`, maxBodyBytes/16+1)
	for _, tc := range []struct {
		name, body string
		code       int
		reply      string
	}{
		{"canonical", `{"op":"malloc","size":16}`, 200, mallocReply},
		{"canonical batch", `{"ops":[{"op":"malloc","size":16},{"op":"digest"}]}`, 200,
			"{\n  \"results\": [\n    {\n      \"addr\": 268435456\n    },\n    {\n      \"value\": 16323986860460177253\n    }\n  ]\n}\n"},
		{"empty batch", `{"ops":[]}`, 200, "{\n  \"results\": []\n}\n"},
		{"empty batch, spaced", " {\n\t\"ops\" : [ ] } ", 200, "{\n  \"results\": []\n}\n"},
		{"empty object", `{}`, 422, emptyOpErr},
		{"null ops", `{"ops":null}`, 422, emptyOpErr},
		{"null op", `{"op":null}`, 422, emptyOpErr},
		{"unknown op", `{"op":"bogus"}`, 422, bad(`op 0: unknown op "bogus"`)},
		{"nested ops", `{"ops":[{"ops":[{"op":"digest"}]}]}`, 422, emptyOpErr},
		{"empty body", ``, 400, bad("bad request body: EOF")},
		{"whitespace body", " \n", 400, bad("bad request body: EOF")},
		{"truncated", `{"op":"malloc"`, 400, bad("bad request body: unexpected EOF")},
		{"not JSON", `op=malloc`, 400, bad("bad request body: invalid character 'o' looking for beginning of value")},
		{"trailing comma", `{"op":"digest",}`, 400, bad("bad request body: invalid character '}' looking for beginning of object key string")},
		{"array body", `[]`, 400, bad("bad request body: json: cannot unmarshal array into Go value of type serve.opRequest")},
		{"float", `{"op":"malloc","size":16.0}`, 400, bad("bad request body: json: cannot unmarshal number 16.0 into Go struct field opRequest.size of type uint64")},
		{"leading zero", `{"op":"malloc","size":016}`, 400, bad("bad request body: invalid character '1' after object key:value pair")},
		{"overflow", `{"op":"load","addr":18446744073709551616}`, 400, bad("bad request body: json: cannot unmarshal number 18446744073709551616 into Go struct field opRequest.addr of type uint64")},
		{"trailing garbage", `{"op":"malloc","size":16}garbage`, 200, mallocReply},
		{"second value", `{"op":"digest"}{"op":"bogus"}`, 200, digestReply},
		{"case-variant keys", `{"OP":"malloc","Size":16}`, 200, mallocReply},
		{"escaped op", `{"op":"mall\u006fc","size":16}`, 200, mallocReply},
		{"oversize, value past the cap", pastCap, 413, bad("request body exceeds 1048576 bytes")},
		{"oversize, value inside the cap", `{"op":"digest"}` + strings.Repeat(" ", maxBodyBytes+1024), 200, digestReply},
		{"oversize, malformed", "x" + strings.Repeat(" ", maxBodyBytes+1024), 400, bad("bad request body: invalid character 'x' looking for beginning of value")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var info sessionInfo
			call(t, sv, "POST", "/sessions", createRequest{}, &info)
			resp, err := http.Post("http://"+sv.Addr()+"/sessions/"+info.ID+"/op", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code || string(reply) != tc.reply {
				t.Errorf("status %d, reply %q; want %d, %q", resp.StatusCode, reply, tc.code, tc.reply)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
		})
	}
}

// TestEmptyBatchExecutesNothing: {"ops": []} on a durable session runs
// no op and journals no record.
func TestEmptyBatchExecutesNothing(t *testing.T) {
	sv := startServer(t, Config{Shards: 1, Store: openTestStore(t, StoreConfig{})})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{}, &info)
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "malloc", Size: 64}, nil)
	s, _ := sv.session(info.ID)
	s.mu.Lock()
	ops, seq := s.ops(), s.log.seq
	s.mu.Unlock()

	var out struct {
		Results []opResult `json:"results"`
	}
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", map[string][]opRequest{"ops": {}}, &out)
	if out.Results == nil || len(out.Results) != 0 {
		t.Fatalf("results %#v, want an empty list", out.Results)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ops() != ops || s.log.seq != seq {
		t.Fatalf("empty batch moved ops %d -> %d, WAL seq %d -> %d", ops, s.ops(), seq, s.log.seq)
	}
}

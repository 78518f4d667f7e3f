package serve

// The /op wire codec: POST /sessions/{id}/op is the one request a raw
// session sends per batch, so its body and reply skip reflection.
//
//   - parseOpRequest decodes the canonical subset of the body straight
//     into an opRequest: exact lowercase keys from op/addr/size/value/
//     words/ops, no escapes and no duplicates; an op string equal to one
//     of the eight op names (or empty); unsigned decimal integers that
//     fit their field; ops at most one level deep; any JSON whitespace.
//     Bytes after the first value are ignored, as json.Decoder ignores
//     them.
//   - appendOpReply writes the single-op and batch replies byte for
//     byte as report.WriteJSON does.
//
// Every other body, and any body the 1 MiB cap cut short, is decoded by
// encoding/json exactly as the other handlers decode theirs, so status
// codes, error texts and decoded batches do not depend on which path
// ran. FuzzOpRequest holds both halves to encoding/json.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unsafe"
)

// opBuffers is one /op request's body, batch, results and reply,
// pooled so a steady stream of batches allocates none of them. Each
// lives only as long as the handler that took the buffers.
type opBuffers struct {
	body    bytes.Buffer
	ops     []opRequest
	results []opResult
	reply   []byte
}

var opBufPool = sync.Pool{New: func() any { return new(opBuffers) }}

// maxPooledBytes keeps a rare near-cap body, or the batch it held, from
// pinning a megabyte in the pool.
const maxPooledBytes = 64 << 10

// fits reports whether every buffer of b is small enough to pool.
func (b *opBuffers) fits() bool {
	return b.body.Cap() <= maxPooledBytes && cap(b.reply) <= maxPooledBytes &&
		cap(b.ops)*int(unsafe.Sizeof(opRequest{})) <= maxPooledBytes &&
		cap(b.results)*int(unsafe.Sizeof(opResult{})) <= maxPooledBytes
}

// putOpBuffers returns b to the pool if it fits, clearing the batch
// first so the pool keeps no op of a finished request.
func putOpBuffers(b *opBuffers) {
	if b.fits() {
		clear(b.ops)
		opBufPool.Put(b)
	}
}

// readOpRequest reads and decodes a /op body into b, writing the error
// reply on failure. The batch is b.ops: the body's ops array, even an
// empty one, or else the body as one op ({} and {"ops": null} are one
// op with no name), which single reports.
func readOpRequest(w http.ResponseWriter, r *http.Request, b *opBuffers) (batch []opRequest, single, ok bool) {
	b.body.Reset()
	_, rerr := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	req, err := decodeOpBody(b.body.Bytes(), rerr, b.ops)
	if err != nil {
		writeBodyErr(w, err)
		return nil, false, false
	}
	single = req.Ops == nil
	if single {
		req.Ops = append(b.ops[:0], req)
	}
	b.ops = req.Ops
	return b.ops, single, true
}

// decodeOpBody decodes a /op body that reading ended with readErr (nil
// at a clean end of body). A whole body in the canonical subset takes
// the fast parser, which gathers a batch into batch's array; anything
// else goes to json.Decoder over the same bytes followed by readErr,
// which is what the decoder would have read from the request itself.
func decodeOpBody(body []byte, readErr error, batch []opRequest) (req opRequest, err error) {
	if readErr == nil {
		if req, ok := parseOpRequest(body, batch); ok {
			return req, nil
		}
	}
	var rd io.Reader = bytes.NewReader(body)
	if readErr != nil {
		rd = io.MultiReader(rd, errReader{readErr})
	}
	err = json.NewDecoder(rd).Decode(&req)
	return req, err
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseOpRequest decodes body when it is in the canonical subset,
// gathering a batch into batch's array, grown when it is too short; ok
// is false when it is not, and then req means nothing.
func parseOpRequest(body []byte, batch []opRequest) (req opRequest, ok bool) {
	p := opParser{b: body, batch: batch}
	ok = p.object(&req, true)
	return req, ok
}

// The opRequest fields, as bits of a per-object seen set.
const (
	keyOp = iota
	keyAddr
	keySize
	keyValue
	keyWords
	keyOps
)

var opKeys = [...]string{keyOp: "op", keyAddr: "addr", keySize: "size", keyValue: "value", keyWords: "words", keyOps: "ops"}

// opNames interns the op string, so a parsed batch holds no string of
// its own.
var opNames = [...]string{"", "malloc", "free", "load", "store", "relocate", "fbit", "final", "digest"}

type opParser struct {
	b     []byte
	i     int
	batch []opRequest // the array a batch is gathered into
}

func (p *opParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (p *opParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses one op object into req; only the top level may carry
// ops.
func (p *opParser) object(req *opRequest, top bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := p.key()
		if !ok || seen&(1<<key) != 0 || !p.eat(':') {
			return false
		}
		seen |= 1 << key
		switch key {
		case keyOp:
			req.Op, ok = p.opName()
		case keyAddr:
			req.Addr, ok = p.number(math.MaxUint64)
		case keySize:
			req.Size, ok = p.number(math.MaxUint64)
		case keyValue:
			req.Value, ok = p.number(math.MaxUint64)
		case keyWords:
			var n uint64
			n, ok = p.number(math.MaxInt)
			req.Words = int(n)
		case keyOps:
			if !top {
				return false
			}
			req.Ops, ok = p.ops()
		}
		if !ok {
			return false
		}
		if !p.eat(',') {
			return p.eat('}')
		}
	}
}

// str consumes a string literal and returns its raw contents up to the
// first quote. Contents holding a backslash can equal no key and no op
// name, so an escape always lands outside the subset.
func (p *opParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	end := bytes.IndexByte(p.b[p.i:], '"')
	if end < 0 {
		return nil, false
	}
	s := p.b[p.i : p.i+end]
	p.i += end + 1
	return s, true
}

func (p *opParser) key() (int, bool) {
	s, ok := p.str()
	if ok {
		for k, name := range opKeys {
			if string(s) == name {
				return k, true
			}
		}
	}
	return 0, false
}

func (p *opParser) opName() (string, bool) {
	s, ok := p.str()
	if ok {
		for _, name := range opNames {
			if string(s) == name {
				return name, true
			}
		}
	}
	return "", false
}

// number consumes an unsigned decimal integer no larger than max. A
// sign, fraction, exponent or leading zero stops it short of the
// delimiter the caller expects next, which sends the body to
// encoding/json.
func (p *opParser) number(max uint64) (uint64, bool) {
	p.ws()
	start := p.i
	if start < len(p.b) && p.b[start] == '0' {
		p.i++
		return 0, true
	}
	var n uint64
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, p.i > start
}

// ops parses the batch array into the parser's batch array.
func (p *opParser) ops() ([]opRequest, bool) {
	if !p.eat('[') {
		return nil, false
	}
	// Non-nil even when empty: encoding/json decodes [] to an empty
	// slice, which handleOp answers as a batch.
	ops := p.batch[:0]
	if ops == nil {
		ops = []opRequest{}
	}
	if !p.eat(']') {
		for {
			var op opRequest
			if !p.object(&op, false) {
				return nil, false
			}
			ops = append(ops, op)
			if !p.eat(',') {
				break
			}
		}
		if !p.eat(']') {
			return nil, false
		}
	}
	return ops, true
}

// maxResultBytes bounds one batch element of the reply: all four
// fields set, 20-digit numbers.
const maxResultBytes = 160

// appendOpReply appends the reply to a /op request: report.WriteJSON
// of results[0] for a single op, of {"results": results} for a batch.
func appendOpReply(dst []byte, results []opResult, single bool) []byte {
	if single {
		return append(appendOpResult(dst, &results[0], ""), '\n')
	}
	if len(results) == 0 {
		return append(dst, "{\n  \"results\": []\n}\n"...)
	}
	// Grown by hand: slices.Grow costs a second allocation under -race.
	if need := 32 + len(results)*maxResultBytes; cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = append(dst, "{\n  \"results\": [\n    "...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ",\n    "...)
		}
		dst = appendOpResult(dst, &results[i], "    ")
	}
	return append(dst, "\n  ]\n}\n"...)
}

// appendOpResult appends one result object whose opening brace sits at
// indent, with opResult's omitempty fields in declaration order.
func appendOpResult(dst []byte, r *opResult, indent string) []byte {
	dst = append(dst, '{')
	open := len(dst) // nothing written past the brace yet
	if r.Addr != 0 {
		dst = strconv.AppendUint(appendKey(dst, len(dst) == open, indent, "addr"), r.Addr, 10)
	}
	if r.Value != 0 {
		dst = strconv.AppendUint(appendKey(dst, len(dst) == open, indent, "value"), r.Value, 10)
	}
	if r.FBit {
		dst = append(appendKey(dst, len(dst) == open, indent, "fbit"), "true"...)
	}
	if r.Target != 0 {
		dst = strconv.AppendUint(appendKey(dst, len(dst) == open, indent, "target"), r.Target, 10)
	}
	if len(dst) > open {
		dst = append(dst, '\n')
		dst = append(dst, indent...)
	}
	return append(dst, '}')
}

// appendKey appends a field's separator, line break, indent and quoted
// key.
func appendKey(dst []byte, first bool, indent, name string) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(dst, '\n')
	dst = append(dst, indent...)
	dst = append(dst, "  \""...)
	dst = append(dst, name...)
	return append(dst, "\": "...)
}

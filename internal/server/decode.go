package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"

	"repro"
	"repro/internal/api"
)

// decode reads a size-limited JSON body into v. Unknown fields and
// trailing data are errors, so typos in request schemas surface as 400s
// instead of silently selecting defaults. A body over MaxBodyBytes is
// an *http.MaxBytesError (413), whatever it holds.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	return decodeBody(body, v)
}

// readBody reads the whole size-limited body into one buffer, presized
// from Content-Length so a well-formed request reads without growing it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	size := min(max(r.ContentLength, 0), s.cfg.MaxBodyBytes)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			return nil, err
		}
		return nil, api.InvalidRequestf("decoding body: %v", err)
	}
	return buf.Bytes(), nil
}

// wordsMember is the key the words scanner looks for.
var wordsMember = []byte(`"words"`)

// decodeBody decodes one request body into v. For the request types
// with a top-level "words" member, splitWords parses that array itself
// and only the rest of the body goes through encoding/json, which costs
// several nanoseconds a byte on a program's digits. The fast path takes
// a body only when it gives the full decode's answer; any body it
// declines, or whose remainder fails to decode, is decoded in full into
// a zeroed value, so errors read exactly as decodeJSON's.
func decodeBody(body []byte, v any) error {
	if dst := wordsField(v); dst != nil && bytes.Contains(body, wordsMember) {
		if rest, words, ok := splitWords(body); ok {
			if decodeJSON(rest, v) == nil {
				*dst = words
				return nil
			}
			reflect.ValueOf(v).Elem().SetZero()
		}
	}
	return decodeJSON(body, v)
}

// wordsField returns the Words field of the request types that carry a
// top-level "words" member, nil for any other.
func wordsField(v any) *[]uint32 {
	switch req := v.(type) {
	case *api.RunRequest:
		return &req.Words
	case *api.EstimateRequest:
		return &req.Words
	case *api.JobRequest:
		return &req.Words
	}
	return nil
}

// decodeJSON is the strict encoding/json decode of one body.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, repro.ErrUnknownPolicy) {
			return err
		}
		return api.InvalidRequestf("decoding body: %v", err)
	}
	if dec.More() {
		return api.InvalidRequestf("trailing data after JSON body")
	}
	return nil
}

// splitWords walks the body's top-level object and parses its "words"
// array into words. rest is the body with that member (and one comma
// next to it) cut out, everything after the object kept as it is. It
// declines (ok false) unless the object is valid JSON, every top-level
// key is an unescaped ASCII string, exactly one key matches "words"
// case-insensitively and is spelled "words", and every element is a
// plain decimal 0..2³²−1. Those are the bodies where encoding/json
// would give Words exactly these values and every other field exactly
// what it decodes from rest.
func splitWords(body []byte) (rest []byte, words []uint32, ok bool) {
	sc := jsonScanner{b: body}
	sc.space()
	if !sc.eat('{') {
		return nil, nil, false
	}
	sc.space()
	if sc.eat('}') {
		return nil, nil, false
	}
	found := false
	cutFrom, cutTo := 0, 0
	prevEnd := -1 // end of the previous member's value
	for {
		keyStart := sc.i
		key, ok := sc.asciiKey()
		if !ok {
			return nil, nil, false
		}
		if found && cutTo == 0 {
			// "words" was the first member: cut it up to this key.
			cutTo = keyStart
		}
		sc.space()
		if !sc.eat(':') {
			return nil, nil, false
		}
		sc.space()
		if bytes.EqualFold(key, []byte("words")) {
			if found || string(key) != "words" {
				return nil, nil, false
			}
			found = true
			if words, ok = sc.words(); !ok {
				return nil, nil, false
			}
			if prevEnd >= 0 {
				cutFrom, cutTo = prevEnd, sc.i
			} else {
				cutFrom = keyStart
			}
		} else if !sc.value(0) {
			return nil, nil, false
		}
		prevEnd = sc.i
		sc.space()
		if sc.eat(',') {
			sc.space()
			continue
		}
		if !sc.eat('}') {
			return nil, nil, false
		}
		break
	}
	if !found {
		return nil, nil, false
	}
	if cutTo == 0 {
		// "words" was the only member.
		cutTo = prevEnd
	}
	rest = make([]byte, 0, len(body)-(cutTo-cutFrom))
	rest = append(append(rest, body[:cutFrom]...), body[cutTo:]...)
	return rest, words, true
}

// maxDepth matches encoding/json's nesting limit; deeper values are
// left to it.
const maxDepth = 10000

// jsonScanner is a cursor over one JSON text. Each method consumes
// what it matches and reports whether the grammar held; on false the
// position is unspecified.
type jsonScanner struct {
	b []byte
	i int
}

func (sc *jsonScanner) space() { sc.i = skipSpace(sc.b, sc.i) }

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func (sc *jsonScanner) eat(c byte) bool {
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// asciiKey matches a string of printable ASCII without escapes and
// returns its contents.
func (sc *jsonScanner) asciiKey() ([]byte, bool) {
	if !sc.eat('"') {
		return nil, false
	}
	start := sc.i
	for ; sc.i < len(sc.b); sc.i++ {
		switch c := sc.b[sc.i]; {
		case c == '"':
			sc.i++
			return sc.b[start : sc.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// words matches an array of plain decimal uint32 elements and returns
// them; an empty array gives an empty, non-nil slice, as encoding/json
// does. It works on locals, since this loop is the scanner's hot path.
func (sc *jsonScanner) words() ([]uint32, bool) {
	if !sc.eat('[') {
		return nil, false
	}
	b, i := sc.b, sc.i
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, false
	}
	words := make([]uint32, 0, bytes.Count(b[i:i+end], []byte{','})+1)
	i = skipSpace(b, i)
	if i < len(b) && b[i] == ']' {
		sc.i = i + 1
		return words, true
	}
	for {
		start := i
		var n uint64
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n = n*10 + uint64(b[i]-'0')
		}
		digits := i - start
		if digits == 0 || digits > 10 || n > math.MaxUint32 || (digits > 1 && b[start] == '0') {
			return nil, false
		}
		words = append(words, uint32(n))
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			sc.i = i + 1
			return words, true
		}
		return nil, false
	}
}

// value matches any JSON value.
func (sc *jsonScanner) value(depth int) bool {
	if sc.i >= len(sc.b) || depth >= maxDepth {
		return false
	}
	switch c := sc.b[sc.i]; {
	case c == '"':
		return sc.str()
	case c == '{':
		sc.i++
		sc.space()
		if sc.eat('}') {
			return true
		}
		for {
			if !sc.str() {
				return false
			}
			sc.space()
			if !sc.eat(':') {
				return false
			}
			sc.space()
			if !sc.value(depth + 1) {
				return false
			}
			sc.space()
			if sc.eat(',') {
				sc.space()
				continue
			}
			return sc.eat('}')
		}
	case c == '[':
		sc.i++
		sc.space()
		if sc.eat(']') {
			return true
		}
		for {
			if !sc.value(depth + 1) {
				return false
			}
			sc.space()
			if sc.eat(',') {
				sc.space()
				continue
			}
			return sc.eat(']')
		}
	case c == 't':
		return sc.literal("true")
	case c == 'f':
		return sc.literal("false")
	case c == 'n':
		return sc.literal("null")
	default:
		return sc.number()
	}
}

func (sc *jsonScanner) literal(lit string) bool {
	if !bytes.HasPrefix(sc.b[sc.i:], []byte(lit)) {
		return false
	}
	sc.i += len(lit)
	return true
}

// str matches a string: no control characters, valid escapes. Like
// encoding/json it accepts any other byte, invalid UTF-8 included.
func (sc *jsonScanner) str() bool {
	if !sc.eat('"') {
		return false
	}
	for sc.i < len(sc.b) {
		c := sc.b[sc.i]
		sc.i++
		switch {
		case c == '"':
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if sc.i >= len(sc.b) {
				return false
			}
			e := sc.b[sc.i]
			sc.i++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if sc.i >= len(sc.b) || !isHex(sc.b[sc.i]) {
						return false
					}
					sc.i++
				}
			default:
				return false
			}
		}
	}
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number matches -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (sc *jsonScanner) number() bool {
	sc.eat('-')
	if sc.eat('0') {
		// no further integer digits after a leading zero
	} else if !sc.digits() {
		return false
	}
	if sc.eat('.') && !sc.digits() {
		return false
	}
	if sc.eat('e') || sc.eat('E') {
		if !sc.eat('+') {
			sc.eat('-')
		}
		return sc.digits()
	}
	return true
}

// digits matches one or more decimal digits.
func (sc *jsonScanner) digits() bool {
	start := sc.i
	for sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9' {
		sc.i++
	}
	return sc.i > start
}

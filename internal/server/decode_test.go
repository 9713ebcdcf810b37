package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro"
	"repro/internal/api"
)

// TestSplitWords pins which bodies the words scanner takes and what it
// leaves for encoding/json. FuzzDecodeBody proves that taking a body
// never changes the answer; this test proves the plain spellings are
// taken at all, so the fast path cannot silently turn into a fallback.
func TestSplitWords(t *testing.T) {
	for _, tc := range []struct {
		body, rest string
		words      []uint32
	}{
		{`{"words":[1,2,3]}`, `{}`, []uint32{1, 2, 3}},
		{`{"words": []}`, `{}`, []uint32{}},
		{` { "words" : [ 0 ,4294967295 ] , "policy":"steering" } `, ` { "policy":"steering" } `, []uint32{0, 4294967295}},
		{`{"policy":"steering","words":[7],"timeoutMs":5}`, `{"policy":"steering","timeoutMs":5}`, []uint32{7}},
		{`{"params":{"words":[9]},"words":[7]} x`, `{"params":{"words":[9]}} x`, []uint32{7}},
		{`{"points":[{"policy":"demand"}],"words":[8]}`, `{"points":[{"policy":"demand"}]}`, []uint32{8}},
	} {
		rest, words, ok := splitWords([]byte(tc.body))
		if !ok || string(rest) != tc.rest || !reflect.DeepEqual(words, tc.words) {
			t.Errorf("splitWords(%s) = %q, %v, %v; want %q, %v, true", tc.body, rest, words, ok, tc.rest, tc.words)
		}
	}
	for _, body := range []string{
		`{}`, `[]`, `{"source":"halt"}`, `{"words":null}`, `{"words":[1,null]}`,
		`{"words":[01]}`, `{"words":[-1]}`, `{"words":[1e3]}`, `{"words":[1.5]}`,
		`{"words":[4294967296]}`, `{"words":[12345678901]}`, `{"words":[1,]}`,
		`{"words":[1],"Words":[2]}`, `{"Words":[1]}`,
		`{"words":[1],"words":[2]}`, `{"words":[1] "policy":"x"}`, `{"words":[1],}`,
		`{"words":[1],"params":{"a":tru}}`, `{"words":[1],"seed":01}`, `{"words":[1]`,
		"{\"words\":[1],\"source\":\"a\x01\"}", `{"words":[1],"source":"\x"}`,
	} {
		if rest, words, ok := splitWords([]byte(body)); ok {
			t.Errorf("splitWords(%s) took the body: %q, %v", body, rest, words)
		}
	}
}

// BenchmarkDecode times Server.decode on the two body shapes of the
// serve-short workload: a 2k-instruction program as binary words and
// examples/programs/histogram.s as source.
func BenchmarkDecode(b *testing.B) {
	prog := repro.Synthesize(repro.AlternatingPhases(2000, 500), 7)
	words, err := repro.EncodeProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	src, err := os.ReadFile("../../examples/programs/histogram.s")
	if err != nil {
		b.Fatal(err)
	}
	steering, err := repro.ParsePolicy("steering")
	if err != nil {
		b.Fatal(err)
	}
	spec := api.RunSpec{Policy: steering, MaxCycles: 50_000_000}
	s := &Server{cfg: Config{MaxBodyBytes: 1 << 20}}
	for _, bc := range []struct {
		name string
		req  api.RunRequest
	}{
		{"words-2k", api.RunRequest{Words: words, RunSpec: spec}},
		{"source-histogram", api.RunRequest{Source: string(src), RunSpec: spec}},
	} {
		body, err := json.Marshal(bc.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			w := httptest.NewRecorder()
			for i := 0; i < b.N; i++ {
				r := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
				var req api.RunRequest
				if err := s.decode(w, r, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

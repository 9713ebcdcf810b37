package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro"
	"repro/internal/api"
)

// FuzzRunSpec drives arbitrary bytes down the run-spec path of POST
// /v1/run: strict decoding into api.RunRequest, Options.Validate, and
// a cluster.Machine run under a small cycle budget. Every input must
// end in a report or an error envelope — never a panic, and never a
// 5xx, which would mean a failure the service did not classify. The
// handler is called directly, so a panic reaches the fuzzer instead of
// net/http's per-connection recovery. The seed corpus lives in
// testdata/fuzz/FuzzRunSpec.
func FuzzRunSpec(f *testing.F) {
	s, err := New(Config{Workers: 1, DefaultMaxCycles: 2000, MaxCyclesCap: 2000, CacheSize: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		var doc struct {
			Report json.RawMessage `json:"report"`
			Error  *struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("status %d, undecodable body %q: %v", rec.Code, rec.Body.String(), err)
		}
		switch {
		case rec.Code >= 500:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.String())
		case rec.Code == http.StatusOK && len(doc.Report) == 0:
			t.Fatalf("200 without a report for %q", body)
		case rec.Code != http.StatusOK && (doc.Error == nil || doc.Error.Code == ""):
			t.Fatalf("status %d without an error code for %q", rec.Code, body)
		}
	})
}

// referenceDecode is the request decode as it was before the words
// scanner: one strict json.Decoder over the size-limited body stream.
// FuzzDecodeBody holds Server.decode to its answers.
func referenceDecode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) || errors.Is(err, repro.ErrUnknownPolicy) {
			return err
		}
		return api.InvalidRequestf("decoding body: %v", err)
	}
	if dec.More() {
		return api.InvalidRequestf("trailing data after JSON body")
	}
	return nil
}

// FuzzDecodeBody is the differential oracle of the words scanner: for
// arbitrary bytes and each request type with a top-level "words"
// member, Server.decode and referenceDecode give the same value
// (reflect.DeepEqual, so [] and null differ) or the same error and
// status. A body over the limit must be a 413 whatever the reference
// made of it — the one deliberate difference, since the reference
// accepted a complete value followed by whitespace past the limit. The
// seed corpus lives in testdata/fuzz/FuzzDecodeBody.
func FuzzDecodeBody(f *testing.F) {
	const limit = 4096
	s := &Server{cfg: Config{MaxBodyBytes: limit}}
	types := []func() any{
		func() any { return new(api.RunRequest) },
		func() any { return new(api.EstimateRequest) },
		func() any { return new(api.JobRequest) },
	}
	post := func(body []byte) (http.ResponseWriter, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, newReq := range types {
			got, want := newReq(), newReq()
			w, r := post(body)
			gotErr := s.decode(w, r, got)
			if len(body) > limit {
				var maxBytes *http.MaxBytesError
				if !errors.As(gotErr, &maxBytes) {
					t.Fatalf("%T: %d-byte body over the %d limit: err = %v, want a MaxBytesError", got, len(body), limit, gotErr)
				}
				continue
			}
			w, r = post(body)
			wantErr := referenceDecode(w, r, limit, want)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%T %q:\n  decode:    %v\n  reference: %v", got, body, gotErr, wantErr)
			}
			if wantErr != nil {
				gotStatus, gotAPI := api.Classify(gotErr)
				wantStatus, wantAPI := api.Classify(wantErr)
				if gotStatus != wantStatus || !reflect.DeepEqual(gotAPI, wantAPI) {
					t.Fatalf("%T %q: classified %d %+v, reference %d %+v", got, body, gotStatus, gotAPI, wantStatus, wantAPI)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T %q:\n  decode:    %+v\n  reference: %+v", got, body, got, want)
			}
		}
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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

package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The reflection form the JSONL exporter wrote before it appended rows
// itself: a "record" discriminator ahead of the embedded row's fields,
// rendered by json.Marshal. It is the exporter's differential reference.
type sampleRecord struct {
	Record string `json:"record"`
	*Sample
}

type decisionRecord struct {
	Record string `json:"record"`
	*Decision
}

type faultRecord struct {
	Record string `json:"record"`
	*FaultEvent
}

type prefetchRecord struct {
	Record string `json:"record"`
	*PrefetchEvent
}

// refCSVRow is the CSV row the exporter built with fmt and strings.Join
// before it appended rows into a reused buffer.
func refCSVRow(s *Sample) string {
	itoa := func(v int) string { return fmt.Sprintf("%d", v) }
	fields := []string{
		itoa(s.Cycle), itoa(s.Core), itoa(s.Retired), itoa(s.IntervalRetired),
		fmt.Sprintf("%.4f", s.IntervalIPC), itoa(s.Occupancy),
	}
	for _, counts := range [][]int{s.Demand[:], s.IntervalIssued[:], s.RFUUnits[:], s.RFUBusy[:], s.FFUBusy[:]} {
		for _, v := range counts {
			fields = append(fields, itoa(v))
		}
	}
	slot := make([]string, len(s.Slots))
	for i, enc := range s.Slots {
		slot[i] = itoa(int(enc))
	}
	fields = append(fields, "\""+strings.Join(slot, " ")+"\"")
	if s.CEMValid {
		fields = append(fields, "1")
	} else {
		fields = append(fields, "0")
	}
	for _, e := range s.CEMErrors {
		fields = append(fields, itoa(e))
	}
	fields = append(fields, itoa(s.CEMChoice), itoa(s.ReconfigSlots), itoa(s.IntervalReconfigs),
		itoa(s.IntervalFlushed), itoa(s.IntervalDispatchStalls),
		itoa(s.BucketIssued), itoa(s.BucketUnits), itoa(s.BucketDeps), itoa(s.BucketFrontend))
	return strings.Join(fields, ",") + "\n"
}

// recordStrings draw the escaping rules a string field can hit: control
// bytes, quotes, the HTML-sensitive <, > and &, U+2028/U+2029 and
// invalid UTF-8.
var recordStrings = []string{
	"", "(empty)", "hybrid", "floating", "injected-transient", "phase-change",
	"tab\there", `q"uote\`, "<a&b>", "\xe2\x80\xa8\xe2\x80\xa9", "bad\xffutf8", "\x00\x1f",
}

// fill sets every field of the value v addresses, recursing into arrays
// and structs: ints small, negative, huge or zero; f for every float;
// str or a drawn string for every string. A field added to a record
// type is filled without editing this function.
func fill(v reflect.Value, rng *rand.Rand, str string, f float64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), rng, str, f)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), rng, str, f)
		}
	case reflect.Int:
		switch rng.Intn(4) {
		case 0:
			v.SetInt(int64(rng.Intn(100)))
		case 1:
			v.SetInt(-rng.Int63())
		case 2:
			v.SetInt(rng.Int63())
		}
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Float64:
		v.SetFloat(f)
	case reflect.String:
		if rng.Intn(2) == 0 {
			v.SetString(str)
		} else {
			v.SetString(recordStrings[rng.Intn(len(recordStrings))])
		}
	default:
		panic("fill: unhandled field kind " + v.Kind().String())
	}
}

// checkRecords fills one record of each kind and holds the JSONL
// exporter's lines to json.Marshal of the reference wrappers (the same
// error where Marshal refuses a float), and the CSV row to refCSVRow.
func checkRecords(t *testing.T, seed int64, str string, f float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		s Sample
		d Decision
		x FaultEvent
		p PrefetchEvent
	)
	for _, rec := range []any{&s, &d, &x, &p} {
		fill(reflect.ValueOf(rec).Elem(), rng, str, f)
	}
	for _, tc := range []struct {
		ref   any
		write func(*JSONL) error
	}{
		{sampleRecord{"sample", &s}, func(e *JSONL) error { return e.Sample(&s) }},
		{decisionRecord{"decision", &d}, func(e *JSONL) error { return e.Decision(&d) }},
		{faultRecord{"fault", &x}, func(e *JSONL) error { return e.Fault(&x) }},
		{prefetchRecord{"prefetch", &p}, func(e *JSONL) error { return e.Prefetch(&p) }},
	} {
		want, wantErr := json.Marshal(tc.ref)
		var buf bytes.Buffer
		e := NewJSONL(&buf)
		gotErr := tc.write(e)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Errorf("%T: error %v, Marshal error %v", tc.ref, gotErr, wantErr)
		case wantErr != nil:
			if gotErr.Error() != wantErr.Error() || buf.Len() != 0 {
				t.Errorf("%T: error %q and %d bytes written, want %q and none", tc.ref, gotErr, buf.Len(), wantErr)
			}
		case buf.String() != string(want)+"\n":
			t.Errorf("%T row:\n got %s want %s", tc.ref, buf.Bytes(), want)
		}
	}

	var buf bytes.Buffer
	c := NewCSV(&buf)
	c.header = true
	if err := c.Sample(&s); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := refCSVRow(&s); buf.String() != want {
		t.Errorf("CSV row:\n got %s want %s", buf.Bytes(), want)
	}
}

// FuzzJSONLRecords draws random Sample, Decision, FaultEvent and
// PrefetchEvent records (strings with escapes, any float bit pattern)
// and holds the exporters to their reflection references.
func FuzzJSONLRecords(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 0.4321, 1.0 / 3, 1e-7, 1e21,
		5e-324, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, s := range recordStrings {
		f.Add(int64(i), s, math.Float64bits(floats[i%len(floats)]))
	}
	f.Fuzz(func(t *testing.T, seed int64, str string, bits uint64) {
		checkRecords(t, seed, str, math.Float64frombits(bits))
	})
}

// TestJSONLKeepsRowsAfterError checks a refused row leaves the stream
// and the buffer fit for the next row.
func TestJSONLKeepsRowsAfterError(t *testing.T) {
	var buf bytes.Buffer
	e := NewJSONL(&buf)
	if err := e.Sample(&Sample{Cycle: 1, IntervalIPC: math.NaN()}); err == nil {
		t.Fatal("NaN IPC accepted")
	}
	if err := e.Fault(&FaultEvent{Cycle: 2, Event: FaultDetected}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := `{"record":"fault","cycle":2,"core":0,"slot":0,"event":"detected"}` + "\n"; buf.String() != want {
		t.Errorf("stream %q, want %q", buf.String(), want)
	}
}

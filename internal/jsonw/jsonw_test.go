package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// member is the reflection reference for the member helpers: Marshal of
// this struct must give the bytes the helpers append for the same values.
type member struct {
	S string   `json:"s"`
	F float64  `json:"f"`
	I int64    `json:"i"`
	U uint64   `json:"u"`
	B bool     `json:"b"`
	A [3]int   `json:"a"`
	E [2]uint8 `json:"e"`
}

func appendMember(b []byte, m *member) ([]byte, error) {
	b = append(b, '{')
	b = String(b, "s", m.S)
	b, err := Float(b, "f", m.F)
	if err != nil {
		return b, err
	}
	b = Int(b, "i", m.I)
	b = Uint(b, "u", m.U)
	b = Bool(b, "b", m.B)
	b = Ints(b, "a", m.A[:])
	b = Ints(b, "e", m.E[:])
	return append(b, '}'), nil
}

// checkAppend holds AppendString, AppendFloat and the member helpers to
// json.Marshal of the same values, appending after a prefix so a helper
// that drops or rewrites earlier bytes fails too.
func checkAppend(t *testing.T, s string, f float64, i int64, u uint64, flag bool) {
	t.Helper()
	prefix := []byte("x")

	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal(%q): %v", s, err)
	}
	if got := AppendString(prefix[:1:1], s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Errorf("AppendString(%q) = %s, want %s", s, got[1:], want)
	}

	want, wantErr := json.Marshal(f)
	got, gotErr := AppendFloat(prefix[:1:1], f)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Errorf("AppendFloat(%v) error %v, Marshal error %v", f, gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("AppendFloat(%v) error %q, want %q", f, gotErr, wantErr)
		}
		if string(got) != "x" {
			t.Errorf("AppendFloat(%v) wrote %q on error", f, got)
		}
	case !bytes.Equal(got[1:], want) || got[0] != 'x':
		t.Errorf("AppendFloat(%v) = %s, want %s", f, got[1:], want)
	}

	m := member{S: s, F: f, I: i, U: u, B: flag,
		A: [3]int{int(i), int(u), -1}, E: [2]uint8{uint8(i), 255}}
	want, wantErr = json.Marshal(&m)
	got, gotErr = appendMember(nil, &m)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Errorf("members of %+v: error %v, Marshal error %v", m, gotErr, wantErr)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Errorf("members of %+v:\n got %s\nwant %s", m, got, want)
	}
}

// stringSeeds draw every escaping rule: control bytes (the named
// escapes and \u00XX), quote and backslash, the HTML-sensitive <, > and
// &, DEL, U+2028/U+2029, valid multi-byte runes, and invalid UTF-8
// (stray continuation bytes, truncated sequences, overlong forms,
// surrogates).
var stringSeeds = []string{
	"", "plain", "IntALU", "\x00\x01\x1f", "\b\f\n\r\t", `"quoted" \ back`,
	"<script>&amp;</script>", "\x7f", "\xe2\x80\xa8 line \xe2\x80\xa9 para",
	"caf\xc3\xa9 \xe6\xbc\xa2 \xf0\x9f\x98\x80", "\xff", "a\x80b", "\xe2\x80",
	"\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x80\xa8\xe2\x80",
}

// floatSeeds sit on AppendFloat's edges: the 'f'/'e' switch at 1e-6 and
// 1e21 on both sides, one- and two-digit exponents, zero and negative
// zero, the subnormals, the extremes, and the three non-finite values.
var floatSeeds = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 0.4321, 123456789,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e100, 1e20,
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendMatchesMarshal(t *testing.T) {
	for _, s := range stringSeeds {
		checkAppend(t, s, 1, 0, 0, false)
	}
	for _, f := range floatSeeds {
		checkAppend(t, "", f, -7, math.MaxUint64, true)
	}
}

func TestKeyCommas(t *testing.T) {
	b := append([]byte(nil), '{')
	b = Int(b, "a", 1)
	b = append(Key(b, "o"), '{')
	b = String(b, "s", "v")
	b = append(b, '}')
	b = Bool(b, "t", true)
	b = append(b, '}')
	if want := `{"a":1,"o":{"s":"v"},"t":true}`; string(b) != want {
		t.Errorf("got %s, want %s", b, want)
	}
	if got := string(Int(nil, "n", 3)); got != `"n":3` {
		t.Errorf("member into an empty slice = %s", got)
	}
}

// FuzzAppendJSON is the differential oracle: for any string, float bit
// pattern and integers, the encoder's bytes (and its error for a float
// JSON cannot hold) match json.Marshal's.
func FuzzAppendJSON(f *testing.F) {
	for i, s := range stringSeeds {
		f.Add(s, math.Float64bits(floatSeeds[i%len(floatSeeds)]), int64(i)-3, uint64(i)<<60, i%2 == 0)
	}
	for i, v := range floatSeeds {
		f.Add(stringSeeds[i%len(stringSeeds)], math.Float64bits(v), int64(-1)<<62, uint64(i), i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64, i int64, u uint64, flag bool) {
		checkAppend(t, s, math.Float64frombits(bits), i, u, flag)
	})
}

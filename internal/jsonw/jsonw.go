// Package jsonw appends JSON values to a byte slice without reflection.
// The per-event trace writers (telemetry JSONL, span JSONL, Chrome trace
// events) fix each record's shape in code and append its values here,
// into a buffer they reuse, so writing a record allocates nothing. The
// bytes are those encoding/json's Marshal writes for the same values:
// the same string escaping (HTML escapes included), the same float
// format, and the same error for a float JSON cannot represent.
//
// Object members are appended in the order the caller writes them. The
// member helpers (Key, String, Int, Uint, Bool, Float, Ints) write the
// separating comma themselves unless the member opens its object, so a
// record reads as one line per field:
//
//	b = append(b, '{')
//	b = jsonw.String(b, "record", "sample")
//	b = jsonw.Int(b, "cycle", int64(s.Cycle))
//	b = append(b, '}')
package jsonw

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes it: `"` and `\` backslash-escaped, control bytes
// as \b \f \n \r \t or \u00XX, <, > and & as \u003c \u003e and \u0026,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8
// as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless |f| is below 1e-6 or at
// least 1e21 (then 'e' form, with a one-digit negative exponent written
// e-7, not e-07). NaN and the infinities are an error with Marshal's
// text; dst is then returned unchanged.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Key appends the name of an object member, `"key":`, preceded by a
// comma unless the member is the first of its object (dst ends in '{').
// key is written as is: member names are identifiers in code, not data.
func Key(dst []byte, key string) []byte {
	if n := len(dst); n > 0 && dst[n-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// String appends the member "key": v with v escaped by AppendString.
func String(dst []byte, key, v string) []byte {
	return AppendString(Key(dst, key), v)
}

// Int appends the member "key": v.
func Int(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(Key(dst, key), v, 10)
}

// Uint appends the member "key": v.
func Uint(dst []byte, key string, v uint64) []byte {
	return strconv.AppendUint(Key(dst, key), v, 10)
}

// Bool appends the member "key": true or false.
func Bool(dst []byte, key string, v bool) []byte {
	return strconv.AppendBool(Key(dst, key), v)
}

// Float appends the member "key": v in AppendFloat's form. On error
// (NaN or an infinity) dst is returned unchanged.
func Float(dst []byte, key string, v float64) ([]byte, error) {
	b, err := AppendFloat(Key(dst, key), v)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// integer is the element types Ints accepts: the record fields' ints
// and byte-sized encodings.
type integer interface {
	~int | ~uint8
}

// Ints appends the member "key": [v0,v1,...], each element a JSON
// number, as encoding/json writes an array of integers. (A []byte
// slice, which Marshal writes as base64, is not such an array: pass
// the elements of a byte array.)
func Ints[T integer](dst []byte, key string, vs []T) []byte {
	dst = append(Key(dst, key), '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

package online

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// DecodeDeltas decodes a JSON delta batch, the body of POST /deltas: one
// array of objects in the schema Delta's struct tags declare. On every input
// it reaches the decision, and on acceptance the values, of encoding/json
// decoding into a []Delta with only whitespace after the array:
//
//   - top-level null is a nil batch and [] an empty one; an element null is a
//     zero Delta and a field null leaves the field as it is;
//   - a key selects the field it spells exactly, else the field it equals
//     under bytes.EqualFold; the last duplicate wins; other keys are skipped,
//     but their values must be well-formed JSON;
//   - integer fields take integer literals within the field's range;
//   - nesting deeper than 10,000 arrays and objects is rejected.
//
// It scans b once, without reflection, after counting b's '{' bytes to size
// the batch. A batch of delta objects that each name a kind is one
// allocation; only a key or kind string holding an escape or a non-ASCII
// byte, or a kind outside the five Kind constants, allocates besides.
// FuzzDecodeDeltas holds it to encoding/json.
func DecodeDeltas(b []byte) ([]Delta, error) {
	body := deltaJSON(b)
	ds, i, err := body.batch(body.space(0))
	if err != nil {
		return nil, err
	}
	if i = body.space(i); i < len(b) {
		return nil, fmt.Errorf("trailing data at offset %d after the delta array", i)
	}
	return ds, nil
}

// deltaJSON is a delta batch body. Its scanning methods take an offset into
// the body and return the offset after what they consumed.
type deltaJSON []byte

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// deltaDepth is the nesting depth of a delta object: the batch array, then
// the object.
const deltaDepth = 2

// deltaKeys are Delta's JSON keys, spelled as its struct tags spell them.
var deltaKeys = [...][]byte{
	[]byte("kind"), []byte("server"), []byte("object"), []byte("reads"),
	[]byte("writes"), []byte("size"), []byte("primary"), []byte("capacity"),
}

// kinds are the five Kind constants, which kind returns without copying.
var kinds = [...]Kind{KindDemand, KindAddObject, KindRemoveObject, KindServerJoin, KindServerLeave}

// batch decodes the top-level value at b[i:]: null, or an array of deltas.
func (b deltaJSON) batch(i int) ([]Delta, int, error) {
	switch b.at(i) {
	case 'n':
		i, err := b.literal(i, "null")
		return nil, i, err
	case '[':
	default:
		return nil, i, b.unexpected(i, "a delta array")
	}
	ds := make([]Delta, 0, b.batchCap())
	if i = b.space(i + 1); b.at(i) == ']' {
		return ds, i + 1, nil
	}
	for {
		var err error
		ds = append(ds, Delta{})
		if i, err = b.delta(i, &ds[len(ds)-1]); err != nil {
			return nil, i, err
		}
		switch i = b.space(i); b.at(i) {
		case ']':
			return ds, i + 1, nil
		case ',':
			i = b.space(i + 1)
		default:
			return nil, i, b.unexpected(i, "',' or ']'")
		}
	}
}

// batchCap bounds the number of delta objects in b from above without
// decoding it: each opens with its own '{', and only a string or a skipped
// value holding braces counts more. No delta object that names its kind is
// shorter than 12 bytes with its comma, which caps what a body of braces can
// reserve; a batch of smaller elements grows as it decodes.
func (b deltaJSON) batchCap() int {
	return min(bytes.Count(b, []byte{'{'}), len(b)/12)
}

// delta decodes the batch element at b[i:] into dst, which is zero.
func (b deltaJSON) delta(i int, dst *Delta) (int, error) {
	switch b.at(i) {
	case 'n':
		return b.literal(i, "null")
	case '{':
	default:
		return i, b.unexpected(i, "a delta object")
	}
	if i = b.space(i + 1); b.at(i) == '}' {
		return i + 1, nil
	}
	for {
		if b.at(i) != '"' {
			return i, b.unexpected(i, "an object key")
		}
		var (
			key []byte
			err error
		)
		if key, i, err = b.str(i); err != nil {
			return i, err
		}
		if i = b.space(i); b.at(i) != ':' {
			return i, b.unexpected(i, "':'")
		}
		if i, err = b.field(b.space(i+1), dst, key); err != nil {
			return i, err
		}
		switch i = b.space(i); b.at(i) {
		case '}':
			return i + 1, nil
		case ',':
			i = b.space(i + 1)
		default:
			return i, b.unexpected(i, "',' or '}'")
		}
	}
}

// field decodes the value at b[i:] into the Delta field key selects, or
// skips it when key selects none.
func (b deltaJSON) field(i int, dst *Delta, key []byte) (int, error) {
	if b.at(i) == 'n' {
		return b.literal(i, "null")
	}
	var (
		v   int64
		err error
	)
	switch string(key) {
	case "kind":
		dst.Kind, i, err = b.kind(i)
	case "server":
		v, i, err = b.integer(i, "int", math.MinInt, math.MaxInt)
		dst.Server = int(v)
	case "object":
		v, i, err = b.integer(i, "int32", math.MinInt32, math.MaxInt32)
		dst.Object = int32(v)
	case "reads":
		dst.Reads, i, err = b.integer(i, "int64", math.MinInt64, math.MaxInt64)
	case "writes":
		dst.Writes, i, err = b.integer(i, "int64", math.MinInt64, math.MaxInt64)
	case "size":
		dst.Size, i, err = b.integer(i, "int64", math.MinInt64, math.MaxInt64)
	case "primary":
		v, i, err = b.integer(i, "int", math.MinInt, math.MaxInt)
		dst.Primary = int(v)
	case "capacity":
		dst.Capacity, i, err = b.integer(i, "int64", math.MinInt64, math.MaxInt64)
	default:
		for _, k := range deltaKeys {
			if bytes.EqualFold(key, k) {
				return b.field(i, dst, k)
			}
		}
		return b.skip(i, deltaDepth)
	}
	return i, err
}

// kind decodes the kind string at b[i:].
func (b deltaJSON) kind(i int) (Kind, int, error) {
	if b.at(i) != '"' {
		return "", i, b.unexpected(i, "a kind string")
	}
	s, i, err := b.str(i)
	if err != nil {
		return "", i, err
	}
	for _, k := range kinds {
		if string(k) == string(s) {
			return k, i, nil
		}
	}
	return Kind(s), i, nil
}

// integer decodes the integer literal at b[i:] within [lo, hi]: a
// fraction, an exponent or a value out of range is an error, as
// strconv.ParseInt makes it in encoding/json.
func (b deltaJSON) integer(i int, typ string, lo, hi int64) (int64, int, error) {
	start, limit := i, uint64(hi)
	neg := b.at(i) == '-'
	if neg {
		i++
		limit = uint64(-(lo + 1)) + 1
	}
	first := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0') // wraps only past 19 digits, rejected below
	}
	switch c := b.at(i); {
	case i == first:
		return 0, start, b.unexpected(start, "an "+typ)
	case b[first] == '0' && i > first+1:
		return 0, first + 1, b.unexpected(first+1, "',' or '}'") // a leading zero ends the literal
	case i-first > 19 || u > limit:
		return 0, i, fmt.Errorf("number at offset %d overflows %s", start, typ)
	case c == '.' || c == 'e' || c == 'E':
		return 0, i, fmt.Errorf("number at offset %d is not an %s", start, typ)
	}
	if neg {
		return -int64(u), i, nil // u = 2^63 wraps to math.MinInt64, its own negation
	}
	return int64(u), i, nil
}

// str decodes the string token at b[i:]. Contents with no escape and only
// ASCII bytes are their own value, returned in place; others are unquoted
// by encoding/json, which turns invalid UTF-8 and lone surrogates into
// U+FFFD.
func (b deltaJSON) str(i int) ([]byte, int, error) {
	end, plain, err := b.strEnd(i)
	switch {
	case err != nil:
		return nil, end, err
	case plain:
		return b[i+1 : end-1], end, nil
	}
	var s string
	if err := json.Unmarshal(b[i:end], &s); err != nil {
		return nil, end, err
	}
	return []byte(s), end, nil
}

// strEnd checks the string token at b[i:] and returns the offset after its
// closing quote; plain reports that it holds no escape and only ASCII.
func (b deltaJSON) strEnd(i int) (int, bool, error) {
	plain := true
	for i++; i < len(b); {
		switch c := b[i]; {
		case plainByte[c]:
			i++
		case c == '"':
			return i + 1, plain, nil
		case c == '\\':
			plain = false
			var err error
			if i, err = b.escape(i); err != nil {
				return i, false, err
			}
		case c < 0x20:
			return i, false, b.unexpected(i, "a string character")
		default: // a byte of a multi-byte UTF-8 sequence, or invalid UTF-8
			plain = false
			i++
		}
	}
	return i, false, errEnd
}

// plainByte marks the bytes a string holds as they stand: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape checks the backslash escape at b[i:].
func (b deltaJSON) escape(i int) (int, error) {
	switch b.at(i + 1) {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return i + 2, nil
	case 'u':
		for j := i + 2; j < i+6; j++ {
			switch c := b.at(j); {
			case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
			default:
				return j, b.unexpected(j, `a hex digit of a \u escape`)
			}
		}
		return i + 6, nil
	}
	return i + 1, b.unexpected(i+1, "an escape character")
}

// skip checks the value at b[i:], whose parent sits at nesting depth depth.
func (b deltaJSON) skip(i, depth int) (int, error) {
	switch c := b.at(i); c {
	case '{', '[':
		if depth == maxJSONDepth {
			return i, fmt.Errorf("nesting at offset %d exceeds %d levels", i, maxJSONDepth)
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		if i = b.space(i + 1); b.at(i) == end {
			return i + 1, nil
		}
		for {
			var err error
			if c == '{' {
				if b.at(i) != '"' {
					return i, b.unexpected(i, "an object key")
				}
				if i, _, err = b.strEnd(i); err != nil {
					return i, err
				}
				if i = b.space(i); b.at(i) != ':' {
					return i, b.unexpected(i, "':'")
				}
				i = b.space(i + 1)
			}
			if i, err = b.skip(i, depth+1); err != nil {
				return i, err
			}
			switch i = b.space(i); b.at(i) {
			case end:
				return i + 1, nil
			case ',':
				i = b.space(i + 1)
			default:
				return i, b.unexpected(i, fmt.Sprintf("',' or '%c'", end))
			}
		}
	case '"':
		i, _, err := b.strEnd(i)
		return i, err
	case 't':
		return b.literal(i, "true")
	case 'f':
		return b.literal(i, "false")
	case 'n':
		return b.literal(i, "null")
	}
	return b.number(i)
}

// number checks the number literal at b[i:], of any size.
func (b deltaJSON) number(i int) (int, error) {
	if b.at(i) == '-' {
		i++
	}
	switch c := b.at(i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = b.digits(i)
	default:
		return i, b.unexpected(i, "a value")
	}
	if b.at(i) == '.' {
		if j := b.digits(i + 1); j > i+1 {
			i = j
		} else {
			return j, b.unexpected(j, "a digit after the decimal point")
		}
	}
	if c := b.at(i); c == 'e' || c == 'E' {
		i++
		if c := b.at(i); c == '+' || c == '-' {
			i++
		}
		if j := b.digits(i); j > i {
			i = j
		} else {
			return i, b.unexpected(i, "a digit of the exponent")
		}
	}
	return i, nil
}

// digits returns the offset after the run of decimal digits at b[i:].
func (b deltaJSON) digits(i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// literal checks the literal lit (true, false or null) at b[i:].
func (b deltaJSON) literal(i int, lit string) (int, error) {
	for k := 0; k < len(lit); k++ {
		if b.at(i+k) != lit[k] {
			return i + k, b.unexpected(i+k, lit)
		}
	}
	return i + len(lit), nil
}

// space returns the offset of the first byte at or after i that is not one
// of JSON's four whitespace bytes.
func (b deltaJSON) space(i int) int {
	for ; i < len(b) && b[i] <= ' '; i++ {
		if c := b[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
	}
	return i
}

// at returns b[i], or 0 past the end: no JSON token starts with 0.
func (b deltaJSON) at(i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

var errEnd = errors.New("unexpected end of JSON input")

// unexpected reports the byte at b[i] where want was expected.
func (b deltaJSON) unexpected(i int, want string) error {
	if i >= len(b) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", b[i], i, want)
}

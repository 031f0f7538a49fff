package online_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// decodeReference is POST /deltas' JSON decoding as encoding/json does it:
// one []Delta value, then nothing but whitespace.
func decodeReference(b []byte) ([]online.Delta, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	var ds []online.Delta
	if err := dec.Decode(&ds); err != nil {
		return nil, err
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, errors.New("trailing data after delta array")
	}
	return ds, nil
}

// checkDecode fails unless DecodeDeltas and the reference both reject b, or
// both accept it with equal batches (a nil batch is not an empty one).
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	want, werr := decodeReference(b)
	got, gerr := online.DecodeDeltas(b)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decision differs on %.200q:\nencoding/json: %v\nDecodeDeltas:  %v", b, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("values differ on %.200q:\nencoding/json: %#v\nDecodeDeltas:  %#v", b, want, got)
	}
}

// nested wraps an empty array in depth-1 more arrays under an unknown key of
// one delta object, so the body nests depth levels: the batch, the object
// and the arrays.
func nested(depth int) string {
	n := depth - 2
	return `[{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}]`
}

// decodeEdgeCases are the inputs where a hand-written JSON decoder most
// easily parts from encoding/json. Each case's expected outcome is
// encoding/json's, computed in the test.
var decodeEdgeCases = []struct {
	name, body string
}{
	{"upper-case keys", `[{"KIND":"demand","Server":3,"OBJECT":4,"Reads":5}]`},
	{"Kelvin sign key", `[{"\u212aind":"demand"}]`},
	{"raw Kelvin sign key", "[{\"\u212aind\":\"demand\"}]"},
	{"long s key", `[{"ſerver":7}]`},
	{"escaped key", `[{"\u006bind":"server-leave","\u0073erver":2}]`},
	{"escaped kind", `[{"kind":"\u0064emand"}]`},
	{"invalid UTF-8 kind", "[{\"kind\":\"dem\xffand\"}]"},
	{"lone surrogate kind", `[{"kind":"\ud800"}]`},
	{"unknown kind", `[{"kind":"nope"}]`},
	{"duplicate server", `[{"server":1,"server":2}]`},
	{"duplicate then null", `[{"server":1,"server":null}]`},
	{"duplicate by fold", `[{"Kind":"demand","kind":"add-object"}]`},
	{"unknown key nested", `[{"x":[[{}]],"kind":"demand"}]`},
	{"unknown key huge exponent", `[{"x":1e999999}]`},
	{"unknown key bad number", `[{"x":1.}]`},
	{"unknown key bad escape", `[{"x":"\q"}]`},
	{"unknown key invalid UTF-8", "[{\"x\":\"\xff\"}]"},
	{"unknown key control byte", "[{\"x\":\"\x01\"}]"},
	{"object 1.0", `[{"object":1.0}]`},
	{"object 1e2", `[{"object":1e2}]`},
	{"object -0", `[{"object":-0}]`},
	{"object 01", `[{"object":01}]`},
	{"object 2147483647", `[{"object":2147483647}]`},
	{"object 2147483648", `[{"object":2147483648}]`},
	{"object -2147483648", `[{"object":-2147483648}]`},
	{"object -2147483649", `[{"object":-2147483649}]`},
	{"reads 9223372036854775807", `[{"reads":9223372036854775807}]`},
	{"reads 9223372036854775808", `[{"reads":9223372036854775808}]`},
	{"reads -9223372036854775808", `[{"reads":-9223372036854775808}]`},
	{"reads -9223372036854775809", `[{"reads":-9223372036854775809}]`},
	{"reads 20 digits", `[{"reads":99999999999999999999}]`},
	{"string in int", `[{"server":"3"}]`},
	{"bool in int", `[{"server":true}]`},
	{"object in int", `[{"server":{}}]`},
	{"array in int", `[{"server":[]}]`},
	{"number in kind", `[{"kind":5}]`},
	{"bool in kind", `[{"kind":false}]`},
	{"null kind", `[{"kind":null,"server":1}]`},
	{"every field", `[{"kind":"add-object","server":1,"object":2,"reads":3,"writes":-4,"size":5,"primary":6,"capacity":7}]`},
	{"nesting 10000", nested(10000)},
	{"nesting 10001", nested(10001)},
	{"two arrays", `[] []`},
	{"trailing byte", `[]x`},
	{"trailing whitespace", " \t\r\n[] \t\r\n"},
	{"form feed", "\f[]"},
	{"empty body", ``},
	{"whitespace body", `  `},
	{"leading BOM", "\xef\xbb\xbf[]"},
	{"null", `null`},
	{"null trailing", `null x`},
	{"empty array", `[]`},
	{"null element", `[null,{"kind":"demand"}]`},
	{"empty object", `[{}]`},
	{"top-level object", `{"kind":"demand"}`},
	{"top-level number", `1`},
	{"string element", `["demand"]`},
	{"trailing comma", `[{"kind":"demand"},]`},
	{"object trailing comma", `[{"kind":"demand",}]`},
	{"missing colon", `[{"kind" "demand"}]`},
	{"truncated", `[{"kind":"demand"`},
	{"truncated literal", `[nul`},
	{"literal run-on", `[nullx]`},
}

func TestDecodeDeltasEdgeCases(t *testing.T) {
	// The nesting cases sit on either side of encoding/json's limit.
	if _, err := decodeReference([]byte(nested(10000))); err != nil {
		t.Fatalf("encoding/json rejects 10,000 levels: %v", err)
	}
	if _, err := decodeReference([]byte(nested(10001))); err == nil {
		t.Fatal("encoding/json accepts 10,001 levels")
	}
	for _, tc := range decodeEdgeCases {
		t.Run(tc.name, func(t *testing.T) { checkDecode(t, []byte(tc.body)) })
	}
}

// flashCrowdBody is one json.Marshal'ed flash-crowd batch over
// testutil.Small's shape.
func flashCrowdBody(tb testing.TB) []byte {
	tb.Helper()
	p := testutil.MustBuild(testutil.Small(1))
	b, err := json.Marshal(sim.NewFlashCrowd(sim.ShapeOf(p), 1).Batch(0))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestDecodeDeltasAllocs pins the batch as the decoder's one allocation,
// however many deltas it holds.
func TestDecodeDeltasAllocs(t *testing.T) {
	d := online.Delta{Kind: online.KindDemand, Server: 12, Object: 3456, Reads: 78, Writes: -9}
	for _, n := range []int{1, 100, 10000} {
		b, err := json.Marshal(repeatDelta(d, n))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := online.DecodeDeltas(b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%d deltas: %.0f allocations, want 1", n, allocs)
		}
	}
}

func repeatDelta(d online.Delta, n int) []online.Delta {
	ds := make([]online.Delta, n)
	for i := range ds {
		ds[i] = d
	}
	return ds
}

// FuzzDecodeDeltas holds DecodeDeltas to encoding/json: on every input both
// reject, or both accept with equal batches.
func FuzzDecodeDeltas(f *testing.F) {
	for _, s := range []string{
		`[{"kind":"demand","server":1,"object":2,"reads":10}]`,
		`[]`,
		`[{"kind":"server-leave","server":1}]`,
		`{"kind":"demand"}`,
		`[{"kind":"demand"}] trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Add(flashCrowdBody(f))
	for _, tc := range decodeEdgeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b) })
}

// BenchmarkDecodeDeltas decodes a flash-crowd surge over 300 servers and
// 3,000 objects (20,000 demand deltas, about 1 MB) with DecodeDeltas and with
// encoding/json.
func BenchmarkDecodeDeltas(b *testing.B) {
	body, err := json.Marshal(sim.NewFlashCrowd(sim.Shape{Servers: 300, Objects: 3000}, 1).Batch(0))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) ([]online.Delta, error)
	}{{"scanner", online.DecodeDeltas}, {"encoding-json", decodeReference}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

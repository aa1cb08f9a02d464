package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"geographer/internal/mesh"
)

// maxNestingDepth is encoding/json's limit on nested arrays and objects;
// one seed nests to it and one a level past it.
const maxNestingDepth = 10000

// decodeSeeds are the differential fuzz target's seed bodies; each runs
// against all four request types.
var decodeSeeds = []string{
	// Plain bodies of every route.
	`{"name":"sim","dim":2,"coords":[0,1,2.5,-3],"weights":[1,2],"k":4,"processes":2,"workers":1,"epsilon":0.03,"seed":7}`,
	`{"eps":0.05}`,
	`{"weights":[1.25,0.5,3]}`,
	`{"coords":[0.1,0.2,0.30000000000000004]}`,
	" \t\r\n{ \"eps\" : 2 ,\"weights\" :[ 1 , 2 ] } \n",
	// Duplicate members: the second decodes into the first's slice, and a
	// null element keeps what that slice (or its spare capacity) holds.
	`{"weights":[1,2,3],"weights":[null,5]}`,
	`{"coords":[1,2,3],"coords":[9],"coords":[null,null,null,null]}`,
	`{"weights":[1,2,3,4,5],"weights":[7],"weights":[null,null,null,null,null,null,null,null,null]}`,
	`{"weights":[1,2],"weights":[],"weights":[null,null]}`,
	`{"weights":[1,2],"weights":null,"weights":[null]}`,
	`{"weights":[null,1.5,null]}`,
	`{"eps":2,"eps":null}`,
	`{"k":3,"K":null,"k":4}`,
	// Folded names: the long s and the Kelvin sign fold to ASCII.
	`{"weightſ":[1]}`,
	`{"coordſ":[1,2]}`,
	`{"epſ":0.5}`,
	`{"K":3,"proceſſes":2,"ſeed":5}`,
	`{"\u212a":3,"EPS":1,"Weights":[2],"COORDS":[3]}`,
	`{"\u0077eights":[2],"\u0063oords":[4],"\u0065ps":6}`,
	`{"\u017feed":1,"\u017FEED":2,"dim":2E0}`,
	// Number edge cases.
	`{"eps":-0,"epsilon":-0.0,"weights":[-0],"k":-0}`,
	`{"eps":1e400}`, `{"weights":[1e400]}`, `{"epsilon":-1e400}`,
	`{"eps":1e-400}`, `{"eps":01}`, `{"eps":1.}`, `{"eps":.5}`, `{"eps":+1}`,
	`{"eps":-}`, `{"eps":1e}`, `{"eps":1e+}`, `{"eps":1E-2}`, `{"eps":2e+3}`,
	`{"k":1.0}`, `{"k":1e3}`, `{"dim":"2"}`,
	`{"seed":9223372036854775807}`, `{"seed":9223372036854775808}`, `{"seed":-9223372036854775808}`,
	`{"eps":9007199254740992}`, `{"eps":9007199254740993}`, `{"eps":9007199254740992.5}`,
	`{"eps":0.0000000000000000000001}`, `{"eps":0.00000000000000000000001}`,
	`{"eps":1.0000000000000000000001}`, `{"eps":123456789012345678901234567890}`,
	`{"weights":[0.1,1.7976931348623157e308,5e-324,2.2250738585072014e-308]}`,
	// Nesting at encoding/json's limit and one past it.
	`{"x":` + strings.Repeat("[", maxNestingDepth-1) + strings.Repeat("]", maxNestingDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth) + `}`,
	`{"x":{"y":[1,{"z":null}],"w":"\u00e9","v":[true,false,null,-1.5e3,""]},"eps":2}`,
	// Top-level values other than an object.
	`null`, ` null `, `[]`, `[1]`, `1`, `"x"`, `true`, ``, ` `,
	// Trailing garbage and truncation.
	`{"eps":1} x`, `{"eps":1}}`, `{"eps":1},`, `nullx`, `{"eps":1`, `{"weights":[1,2`, `{"weights":[1,]}`,
	`{"eps" 1}`, `{"eps":1,}`, `{,}`, `{"eps":tru}`, `{"x":nul}`,
	// Wrong types.
	`{"weights":"x"}`, `{"weights":{}}`, `{"weights":[[1]]}`, `{"weights":[true]}`, `{"weights":1}`,
	`{"coords":[1,"2"]}`, `{"name":5}`, `{"eps":"1"}`, `{"eps":[1]}`, `{"k":true}`,
	// Invalid UTF-8, escapes and control characters in names and strings.
	"{\"\xff\":1,\"eps\":3}", "{\"weights\xff\":[1]}", "{\"eps\xc0\":1}",
	`{"\ud800":1}`, `{"\ud83d\ude00":1}`, `{"\udc00\ud800eps":1}`, `{"\ud800\u0065ps":1}`,
	`{"\x":1}`, `{"\u12":1}`, `{"\u12g4":1}`, "{\"a\x01\":1}", `{"a\/b\"\\\b\f\n\r\t":1}`,
	`{"name":"a\u00e9\ud800b"}`, "{\"name\":\"bad\xff\\ud800\"}", `{"name":null}`, `{"name":"x","name":null}`,
}

// FuzzDecodeRequestMatchesEncodingJSON checks the request reader against
// json.Unmarshal on every request type (the selector byte picks one): an
// error under one exactly when under the other, and otherwise
// bit-identical values (%#v prints each float64 in its shortest
// round-trip form, -0 included, and a nil slice apart from an empty one).
func FuzzDecodeRequestMatchesEncodingJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		for sel := byte(0); sel < 4; sel++ {
			f.Add(sel, []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		switch sel % 4 {
		case 0:
			matchEncodingJSON[createRequest](t, data)
		case 1:
			matchEncodingJSON[repartitionRequest](t, data)
		case 2:
			matchEncodingJSON[weightsRequest](t, data)
		case 3:
			matchEncodingJSON[coordsRequest](t, data)
		}
	})
}

func matchEncodingJSON[T any, P interface {
	*T
	request
}](t *testing.T, data []byte) {
	t.Helper()
	var want, got T
	werr := json.Unmarshal(data, &want)
	gerr := decodeRequest(data, P(&got))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T on %q: reader error %v, encoding/json error %v", got, data, gerr, werr)
	}
	if werr != nil {
		return
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("%T on %q:\nreader        %s\nencoding/json %s", got, data, g, w)
	}
}

// waveBody builds a weights body like the serve benchmark's: n shortest
// round-trip float64 values around 1.
func waveBody(n int) []byte {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + 0.5*math.Sin(2*math.Pi*1.5*float64(i)/float64(n)-0.15)
	}
	b, _ := json.Marshal(weightsRequest{Weights: w}) // finite floats: cannot fail
	return b
}

// createBody builds a create body of n 2D points with weights.
func createBody(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	q := createRequest{Name: "bench", Dim: 2, Coords: make([]float64, 2*n), Weights: make([]float64, n), K: 8, Processes: 2, Epsilon: 0.03, Seed: 1}
	for i := range q.Coords {
		q.Coords[i] = rng.Float64() * 100
	}
	for i := range q.Weights {
		q.Weights[i] = 0.5 + rng.Float64()
	}
	b, _ := json.Marshal(q) // finite floats: cannot fail
	return b
}

// TestDecodeRequestLargeBodies runs the differential on bodies the size
// the serve benchmark sends, beyond what the fuzz seeds reach.
func TestDecodeRequestLargeBodies(t *testing.T) {
	matchEncodingJSON[weightsRequest](t, waveBody(40000))
	matchEncodingJSON[createRequest](t, createBody(40000))
}

// walkTakes checks that the walk alone takes data as a T, and that the
// values agree with json.Unmarshal's.
func walkTakes[T any, P interface {
	*T
	request
}](t *testing.T, what string, data []byte) {
	t.Helper()
	if !walk(data, P(new(T))) {
		t.Fatalf("%s: the walk falls back to encoding/json", what)
	}
	matchEncodingJSON[T, P](t, data)
}

// TestDecodeAllocsAfterGC: what a body costs the walk in allocations
// depends on the body alone, not on what earlier decodes left behind — a
// garbage collection before each decode costs nothing beyond the
// collection's own allocations.
func TestDecodeAllocsAfterGC(t *testing.T) {
	gc := testing.AllocsPerRun(10, runtime.GC)
	for _, c := range []struct {
		name string
		body []byte
		new  func() request
	}{
		{"weights40k", waveBody(40000), func() request { return new(weightsRequest) }},
		{"create40k", createBody(40000), func() request { return new(createRequest) }},
	} {
		decode := func() {
			if err := decodeRequest(c.body, c.new()); err != nil {
				t.Fatal(err)
			}
		}
		warm := testing.AllocsPerRun(10, decode)
		afterGC := testing.AllocsPerRun(10, func() { runtime.GC(); decode() })
		if afterGC-gc != warm {
			t.Errorf("%s: %v allocs per decode after a GC, %v back to back", c.name, afterGC-gc, warm)
		}
	}
}

// TestBenchTrafficTakesTheWalk builds request bodies the way the serve
// benchmark's clients build them (bench/serve.go) — the repartition
// literal, a marshalled weights struct and a marshalled create map over
// both of its mesh kinds — and checks that every one stays on the walk.
func TestBenchTrafficTakesTheWalk(t *testing.T) {
	walkTakes[repartitionRequest](t, "repartition", []byte(`{"eps":0}`))
	gens := []func(int, int64) (*mesh.Mesh, error){mesh.GenRefinedTri, mesh.GenClimate}
	for id, gen := range gens {
		m, err := gen(4000, int64(11+id))
		if err != nil {
			t.Fatal(err)
		}
		ps := m.Points
		wts := make([]float64, ps.Len())
		for i := range wts {
			wts[i] = ps.W(i) * (1 + 0.5*math.Sin(2*math.Pi*1.5*ps.Coords[i*ps.Dim]-0.7*float64(id)))
		}
		weights, err := json.Marshal(struct {
			Weights []float64 `json:"weights"`
		}{wts})
		if err != nil {
			t.Fatal(err)
		}
		create, err := json.Marshal(map[string]any{
			"name": fmt.Sprintf("tenant-%d", id), "dim": ps.Dim, "coords": ps.Coords, "weights": wts,
			"k": 16, "processes": 1, "epsilon": 0.03, "seed": 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		walkTakes[weightsRequest](t, m.Name+" weights", weights)
		walkTakes[createRequest](t, m.Name+" create", create)
	}
	walkTakes[weightsRequest](t, "waveBody", waveBody(40000))
	walkTakes[createRequest](t, "createBody", createBody(40000))
}

// TestWalkBailsOutsideTheCanonicalShape pins the walk's boundary: each
// body leaves the canonical shape one way, the walk does not take it,
// and decodeRequest still agrees with json.Unmarshal on it. The invalid
// UTF-8 name is one a walk that took any non-ASCII byte would decode
// wrongly, and one the fuzz seeds do not reach.
func TestWalkBailsOutsideTheCanonicalShape(t *testing.T) {
	for _, body := range []string{
		`null`,
		`{"epsilon":null}`,
		`{"weights":[1,null]}`,
		`{"name":"caf\u00e9"}`,
		"{\"name\":\"caf\xc3\xa9\"}",
		"{\"name\":\"bad\xff\"}",
		"{\"name\":\"a\x7fb\"}",
		`{"n\u0061me":"x"}`,
		`{"K":3}`,
		`{"x":1,"k":2}`,
		`{"epsilon":1e400}`,
		`{"k":1.5}`,
		`{"k":01}`,
		`{"k":1}x`,
		`{"k":1,}`,
	} {
		if walk([]byte(body), new(createRequest)) {
			t.Errorf("the walk takes %q", body)
		}
		matchEncodingJSON[createRequest](t, []byte(body))
	}
}

// BenchmarkDecodeRequest compares the reader with json.Unmarshal on a
// 40 000-weight body and a 40 000-point create body, both in the
// canonical shape the walk takes. With -benchmem the reader's allocs/op
// is a constant — the request, the decoder and one exact-size slice per
// array (plus the name on create) — where encoding/json's grows with the
// body.
func BenchmarkDecodeRequest(b *testing.B) {
	cases := []struct {
		name string
		body []byte
		new  func() request
	}{
		{"weights40k", waveBody(40000), func() request { return new(weightsRequest) }},
		{"create40k", createBody(40000), func() request { return new(createRequest) }},
	}
	for _, c := range cases {
		b.Run(c.name+"/reader", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decodeRequest(c.body, c.new()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := json.Unmarshal(c.body, c.new()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeRequestAllocs pins the walk's heap allocations per decode of
// the benchmark's bodies: the weights body allocates the request and its
// one exact-size slice; the create body the request, its two slices and
// the name string. A decoder moved to the heap adds one to each.
func TestDecodeRequestAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		body []byte
		new  func() request
		want float64
	}{
		{"weights40k", waveBody(40000), func() request { return new(weightsRequest) }, 2},
		{"create40k", createBody(40000), func() request { return new(createRequest) }, 4},
	} {
		got := testing.AllocsPerRun(20, func() {
			if err := decodeRequest(c.body, c.new()); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %.0f allocations per decode, want %.0f", c.name, got, c.want)
		}
	}
}

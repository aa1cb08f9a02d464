package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/repart"
)

// httpDo runs one request against the handler and decodes the JSON
// response into out (skipped when out is nil).
func httpDo(t *testing.T, h http.Handler, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s: status %d (body %s), want %d", method, path, rec.Code, rec.Body.String(), wantStatus)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode response %q: %v", method, path, rec.Body.String(), err)
		}
	}
}

// TestHTTPLifecycle drives a full tenant lifecycle over the HTTP API
// and pins the chain bit-identical to the solo session reference.
func TestHTTPLifecycle(t *testing.T) {
	const n, k, p, steps = 1200, 6, 2, 2
	m := tenantMesh(t, n, 7)
	ref, _ := soloChain(t, m, k, p, steps)

	g := NewRegistry(Config{})
	h := NewHandler(g)

	create := createRequest{
		Name: "sim", Dim: m.Points.Dim, Coords: m.Points.Coords,
		Weights: phaseWeights(m, 0), K: k, Processes: p,
	}
	httpDo(t, h, "POST", "/v1/tenants", create, http.StatusCreated, nil)

	var cold stepResponse
	httpDo(t, h, "POST", "/v1/tenants/sim/partition", nil, http.StatusOK, &cold)
	assertSameAssign(t, "http cold", cold.Assign, ref[0])

	for step := 1; step <= steps; step++ {
		httpDo(t, h, "POST", "/v1/tenants/sim/weights",
			map[string]any{"weights": phaseWeights(m, step)}, http.StatusOK, nil)
		var resp stepResponse
		httpDo(t, h, "POST", "/v1/tenants/sim/repartition",
			map[string]float64{"eps": 0}, http.StatusOK, &resp)
		if !resp.Acted {
			t.Fatalf("http step %d did not act", step)
		}
		assertSameAssign(t, fmt.Sprintf("http step %d", step), resp.Assign, ref[step])
	}

	// Skip branch: a huge threshold reports without stepping.
	var skip stepResponse
	httpDo(t, h, "POST", "/v1/tenants/sim/repartition",
		map[string]float64{"eps": 1e9}, http.StatusOK, &skip)
	if skip.Acted || skip.Assign != nil {
		t.Fatalf("threshold skip acted: %+v", skip)
	}

	var imb map[string]float64
	httpDo(t, h, "GET", "/v1/tenants/sim/imbalance", nil, http.StatusOK, &imb)
	var assign map[string][]int32
	httpDo(t, h, "GET", "/v1/tenants/sim/assign", nil, http.StatusOK, &assign)
	assertSameAssign(t, "http assign", assign["assign"], ref[steps])

	// Checkpoint round-trips through the public restore path.
	req := httptest.NewRequest("GET", "/v1/tenants/sim/checkpoint", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("checkpoint: status %d type %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	if info, err := repart.ReadCheckpointInfo(rec.Body.Bytes()); err != nil || info.N != m.Points.Len() {
		t.Fatalf("checkpoint header: %+v err=%v", info, err)
	}

	httpDo(t, h, "POST", "/v1/tenants/sim/evict", nil, http.StatusOK, nil)
	var infos []TenantInfo
	httpDo(t, h, "GET", "/v1/tenants", nil, http.StatusOK, &infos)
	if len(infos) != 1 || infos[0].Resident {
		t.Fatalf("after evict: %+v", infos)
	}
	var ti TenantInfo
	httpDo(t, h, "GET", "/v1/tenants/sim", nil, http.StatusOK, &ti)
	if ti.Name != "sim" || ti.Evicted != 1 {
		t.Fatalf("tenant info: %+v", ti)
	}

	// Restore-on-touch through HTTP: imbalance works on a parked tenant.
	httpDo(t, h, "GET", "/v1/tenants/sim/imbalance", nil, http.StatusOK, &imb)
	var st RegistryStats
	httpDo(t, h, "GET", "/v1/stats", nil, http.StatusOK, &st)
	if st.Restores != 1 || st.Resident != 1 {
		t.Fatalf("stats after restore: %+v", st)
	}

	httpDo(t, h, "DELETE", "/v1/tenants/sim", nil, http.StatusOK, nil)
	httpDo(t, h, "GET", "/v1/tenants/sim", nil, http.StatusNotFound, nil)
}

// TestHTTPPartitionReportsImbalance pins the cold step response's
// diagnostics: "imbalance" is the achieved imbalance of the cold run —
// bit-identical to a solo session's LastInfo — and "dist_calcs" its
// distance-evaluation count, never the zero an unset field encodes.
func TestHTTPPartitionReportsImbalance(t *testing.T) {
	const n, k, p = 1200, 6, 2
	m := tenantMesh(t, n, 7)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}
	solo, err := repart.NewSession(mpi.NewWorld(p), ps.Clone(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if _, err := solo.Partition(); err != nil {
		t.Fatal(err)
	}
	want := solo.LastInfo()

	h := NewHandler(NewRegistry(Config{}))
	httpDo(t, h, "POST", "/v1/tenants", createRequest{
		Name: "sim", Dim: ps.Dim, Coords: ps.Coords, Weights: ps.Weight, K: k, Processes: p,
	}, http.StatusCreated, nil)
	var cold stepResponse
	httpDo(t, h, "POST", "/v1/tenants/sim/partition", nil, http.StatusOK, &cold)
	if math.Float64bits(cold.Imbalance) != math.Float64bits(want.Imbalance) || !(cold.Imbalance > 0) {
		t.Fatalf("cold imbalance %v, solo session %v (want equal and > 0)", cold.Imbalance, want.Imbalance)
	}
	if cold.DistCalcs != want.DistCalcs || cold.DistCalcs <= 0 {
		t.Fatalf("cold dist_calcs %d, solo session %d", cold.DistCalcs, want.DistCalcs)
	}
}

// TestHTTPErrorMapping pins each typed error to its status code.
func TestHTTPErrorMapping(t *testing.T) {
	const n, k, p = 600, 4, 2
	m := tenantMesh(t, n, 8)

	g := NewRegistry(Config{MaxTenants: 1})
	h := NewHandler(g)

	// 404: unknown tenant.
	httpDo(t, h, "POST", "/v1/tenants/ghost/partition", nil, http.StatusNotFound, nil)
	// 400: validation (k missing).
	httpDo(t, h, "POST", "/v1/tenants",
		createRequest{Name: "bad", Dim: m.Points.Dim, Coords: m.Points.Coords},
		http.StatusBadRequest, nil)
	// 400: malformed body.
	req := httptest.NewRequest("POST", "/v1/tenants", bytes.NewBufferString("{"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", rec.Code)
	}

	create := createRequest{Name: "sim", Dim: m.Points.Dim, Coords: m.Points.Coords, K: k, Processes: p}
	httpDo(t, h, "POST", "/v1/tenants", create, http.StatusCreated, nil)
	// 409: duplicate name.
	httpDo(t, h, "POST", "/v1/tenants", create, http.StatusConflict, nil)
	// 429: tenant cap.
	other := create
	other.Name = "sim2"
	httpDo(t, h, "POST", "/v1/tenants", other, http.StatusTooManyRequests, nil)
	// 400: warm step before any partition exists.
	httpDo(t, h, "POST", "/v1/tenants/sim/repartition", map[string]float64{"eps": 0}, http.StatusBadRequest, nil)
	// 400: wrong weight count.
	httpDo(t, h, "POST", "/v1/tenants/sim/weights", map[string]any{"weights": []float64{1}}, http.StatusBadRequest, nil)

	// 503: draining.
	g.Drain()
	httpDo(t, h, "POST", "/v1/tenants/sim/partition", nil, http.StatusServiceUnavailable, nil)
	httpDo(t, h, "POST", "/v1/tenants", other, http.StatusServiceUnavailable, nil)
}

// TestHTTPCreateShapeBounds pins create's shape bounds: k and processes
// above the point count are a 400, before admission and before any
// world is built. The crafted pair would otherwise wrap
// residentBytesEstimate to 0, pass a 64 MiB budget, and ask for a
// 2³⁰-rank world.
func TestHTTPCreateShapeBounds(t *testing.T) {
	const n = 4
	coords := []float64{0, 0, 1, 0, 0, 1, 1, 1}
	h := NewHandler(NewRegistry(Config{MaxResidentBytes: 64 << 20}))
	for _, c := range []struct {
		name     string
		k, procs int
		want     int
	}{
		{"k-above-n", n + 1, 1, http.StatusBadRequest},
		{"processes-above-n", 1, n + 1, http.StatusBadRequest},
		{"estimate-wrapping", 1 << 29, 1 << 30, http.StatusBadRequest},
		{"k-and-processes-at-n", n, n, http.StatusCreated},
	} {
		httpDo(t, h, "POST", "/v1/tenants",
			createRequest{Name: c.name, Dim: 2, Coords: coords, K: c.k, Processes: c.procs}, c.want, nil)
	}
}

// TestHTTPOversizedBody413 pins a declared Content-Length above
// maxBodyBytes to 413 on every route that takes a body, before anything
// is read (the body sent is tiny; only its declared length is forged).
func TestHTTPOversizedBody413(t *testing.T) {
	h := NewHandler(NewRegistry(Config{}))
	for _, path := range []string{"/v1/tenants", "/v1/tenants/x/weights", "/v1/tenants/x/coords", "/v1/tenants/x/repartition"} {
		req := httptest.NewRequest("POST", path, strings.NewReader(`{}`))
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with Content-Length %d: status %d (body %s), want 413", path, req.ContentLength, rec.Code, rec.Body.String())
		}
	}
}

// TestHTTPTenantInfoLocksOnlyThatTenant holds one tenant's mutex — as its
// in-flight verb would — and checks that GET on another tenant answers.
func TestHTTPTenantInfoLocksOnlyThatTenant(t *testing.T) {
	g := NewRegistry(Config{})
	h := NewHandler(g)
	for i, name := range []string{"a", "b"} {
		if err := g.Create(context.Background(), name, tenantMesh(t, 300, int64(i)).Points, TenantOptions{K: 4, Processes: 2}); err != nil {
			t.Fatal(err)
		}
	}
	g.mu.Lock()
	busy := g.tenants["b"]
	g.mu.Unlock()
	busy.mu.Lock()
	defer busy.mu.Unlock()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tenants/a", nil))
		done <- rec
	}()
	select {
	case rec := <-done:
		var ti TenantInfo
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ti) != nil || ti.Name != "a" {
			t.Fatalf("GET /v1/tenants/a: status %d, body %s", rec.Code, rec.Body.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GET /v1/tenants/a waited behind tenant b's mutex")
	}
}

// TestHTTPMalformedBodies sends every route that takes a body a
// truncated, a wrong-typed, an overflowing and a trailing-garbage body:
// each is 400 and leaves the registry's state untouched. Create's
// weights keep encoding/json's two empties apart: [] is 400 (wrong
// length), null is 201 (unit weights).
func TestHTTPMalformedBodies(t *testing.T) {
	const n, k, p = 600, 4, 2
	m := tenantMesh(t, n, 9)
	g := NewRegistry(Config{})
	h := NewHandler(g)
	createFields := func(name string, weights any) map[string]any {
		return map[string]any{"name": name, "dim": m.Points.Dim, "coords": m.Points.Coords, "weights": weights, "k": k, "processes": p}
	}
	httpDo(t, h, "POST", "/v1/tenants", createFields("sim", phaseWeights(m, 0)), http.StatusCreated, nil)
	httpDo(t, h, "POST", "/v1/tenants/sim/partition", nil, http.StatusOK, nil)

	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	snapshot := func() string {
		ckpt, err := g.Checkpoint("sim")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x %+v", ckpt, g.List())
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}

	routes := []struct{ path, valid, wrongType, overflow string }{
		{"/v1/tenants", marshal(createFields("other", nil)),
			`{"name":"other","dim":"2"}`, `{"name":"other","k":9223372036854775808}`},
		{"/v1/tenants/sim/weights", marshal(weightsRequest{phaseWeights(m, 1)}),
			`{"weights":"1"}`, `{"weights":[1e400]}`},
		{"/v1/tenants/sim/coords", marshal(coordsRequest{m.Points.Coords}),
			`{"coords":{"x":1}}`, `{"coords":[0,1e309]}`},
		{"/v1/tenants/sim/repartition", `{"eps":0}`,
			`{"eps":"0"}`, `{"eps":1e999}`},
	}
	before := snapshot()
	for _, rt := range routes {
		for _, c := range []struct{ kind, body string }{
			{"truncated", rt.valid[:len(rt.valid)/2]},
			{"wrong-typed", rt.wrongType},
			{"overflowing", rt.overflow},
			{"trailing garbage", rt.valid + ` x`},
		} {
			if rec := post(rt.path, c.body); rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s, %s body: status %d (body %s), want 400", rt.path, c.kind, rec.Code, rec.Body.String())
			}
			if snapshot() != before {
				t.Fatalf("POST %s, %s body changed the registry's state", rt.path, c.kind)
			}
		}
	}

	if rec := post("/v1/tenants", marshal(createFields("empty", []float64{}))); rec.Code != http.StatusBadRequest {
		t.Errorf(`create with "weights":[]: status %d (body %s), want 400`, rec.Code, rec.Body.String())
	}
	if rec := post("/v1/tenants", marshal(createFields("unit", nil))); rec.Code != http.StatusCreated {
		t.Errorf(`create with "weights":null: status %d (body %s), want 201`, rec.Code, rec.Body.String())
	}
	if _, err := g.Info("empty"); !errors.Is(err, ErrNotFound) {
		t.Errorf(`create with "weights":[] registered a tenant (err %v)`, err)
	}
}

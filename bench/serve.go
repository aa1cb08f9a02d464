package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"path/filepath"
	"sync"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/repart"
	"geographer/internal/sched"
	"geographer/internal/serve"
	"geographer/internal/store"
)

// serve_tenants: the HTTP handler over a disk-spilled registry on a
// loopback server. Four tenants, two closed-loop keep-alive clients; each
// client owns two tenants and alternates between them in bursts. The first
// timestep of a burst lands on a parked tenant (restore-on-touch), the
// last ends with an explicit evict, so a third of the ops pay spill I/O
// and two thirds are resident steps.
const (
	serveTenants = 4
	serveClients = 2
	servePool    = 2 // shared worker pool; each tenant leases all of it
	serveRanks   = 1
)

func tenantName(id int) string { return fmt.Sprintf("tenant-%d", id) }

// tenantPhase offsets each tenant's load wave so no two step in unison.
func tenantPhase(id int) float64 { return 0.7 * float64(id) }

// serveEnv is one pass's server: store, registry, loopback HTTP server.
type serveEnv struct {
	disk *store.Disk
	reg  *serve.Registry
	srv  *httptest.Server
}

func newServeEnv(dir string) (*serveEnv, error) {
	disk, err := store.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(serve.Config{Pool: sched.NewPool(servePool), Store: disk})
	return &serveEnv{disk: disk, reg: reg, srv: httptest.NewServer(serve.NewHandler(reg))}, nil
}

func (e *serveEnv) close() {
	e.srv.Close()
	e.reg.Drain()
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	base string
	http *http.Client
	tr   *tracer // nil in untraced passes
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, tr: tr}
}

// do sends one request and decodes a 2xx JSON response into out. Any
// transport error or other status is the op's failure.
func (c *client) do(method, url string, body []byte, out any, parent, op int) error {
	span := 0
	if c.tr != nil {
		span = c.tr.begin("http "+method+" "+path.Base(url), parent, op)
		defer func() { c.tr.end(span) }()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+url, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return nil
}

// stepReply is the part of the repartition response the client reads.
type stepReply struct {
	Acted          bool    `json:"acted"`
	Assign         []int32 `json:"assign"`
	MigratedWeight float64 `json:"migrated_weight"`
}

type assignReply struct {
	Assign []int32 `json:"assign"`
}

var epsZeroBody = []byte(`{"eps":0}`)

// timestep is one op as a client sees it: post the new weights, ask for a
// repartition (eps 0: any measurable imbalance triggers it), fetch the
// assignment; evict closes a burst. It returns the fetched assignment and
// the migrated weight.
func (c *client) timestep(name string, weightsBody []byte, evict bool, parent, op int) ([]int32, float64, error) {
	prefix := "/v1/tenants/" + name
	if err := c.do("POST", prefix+"/weights", weightsBody, nil, parent, op); err != nil {
		return nil, 0, err
	}
	var st stepReply
	if err := c.do("POST", prefix+"/repartition", epsZeroBody, &st, parent, op); err != nil {
		return nil, 0, err
	}
	if !st.Acted {
		return nil, 0, fmt.Errorf("%s: repartition did not act", name)
	}
	var as assignReply
	if err := c.do("GET", prefix+"/assign", nil, &as, parent, op); err != nil {
		return nil, 0, err
	}
	if hashAssign(as.Assign) != hashAssign(st.Assign) {
		return nil, 0, fmt.Errorf("%s: GET assign differs from the repartition reply", name)
	}
	if evict {
		if err := c.do("POST", prefix+"/evict", nil, nil, parent, op); err != nil {
			return nil, 0, err
		}
	}
	return as.Assign, st.MigratedWeight, nil
}

func weightsBody(wts []float64) []byte {
	b, _ := json.Marshal(struct {
		Weights []float64 `json:"weights"`
	}{wts}) // cannot fail: finite floats
	return b
}

// tenantStep identifies one executed timestep of a tenant's chain, for the
// solo replay: the wave step it applied and the op that recorded its hash.
type tenantStep struct{ wave, op int }

func runServe(w *workload, sz size, in *inputs, pc passConfig) *passResult {
	r := newResult(w, sz, in, pc)
	var tr *tracer
	if pc.Traced {
		tr = newTracer()
	}
	sSetup := 0
	if tr != nil {
		sSetup = tr.begin("setup", 0, -1)
	}

	t0 := time.Now()
	env, err := newServeEnv(filepath.Join(pc.TmpDir, "spill"))
	if err != nil {
		r.fail(-1, "server: %v", err)
		return r
	}
	defer env.close()
	setup := newClient(env.srv.URL, tr)
	defer setup.http.CloseIdleConnections()
	wave := make([]int, serveTenants) // next wave step per tenant
	for id, d := range in.Sets {
		wts := make([]float64, d.n())
		waveWeights(d, 0, tenantPhase(id), wts)
		body, _ := json.Marshal(map[string]any{
			"name": tenantName(id), "dim": d.Dim, "coords": d.Coords, "weights": wts,
			"k": w.K, "processes": serveRanks, "epsilon": benchEps, "seed": 1,
		})
		if err := setup.do("POST", "/v1/tenants", body, nil, sSetup, -1); err != nil {
			r.fail(-1, "create: %v", err)
			return r
		}
		if err := setup.do("POST", "/v1/tenants/"+tenantName(id)+"/partition", nil, nil, sSetup, -1); err != nil {
			r.fail(-1, "cold partition: %v", err)
			return r
		}
		for wave[id] = 1; wave[id] <= sz.Warm; wave[id]++ {
			waveWeights(d, wave[id], tenantPhase(id), wts)
			// The last warm-up step parks the tenant: every burst starts
			// on a parked tenant.
			if _, _, err := setup.timestep(tenantName(id), weightsBody(wts), wave[id] == sz.Warm, sSetup, -1); err != nil {
				r.fail(-1, "warm-up: %v", err)
				return r
			}
		}
	}
	r.SetupS = time.Since(t0).Seconds()
	if tr != nil {
		tr.end(sSetup)
	}

	// The timed script: each client replays its bursts, closed loop.
	chains := make([][]tenantStep, serveTenants)
	perClient := sz.Bursts * sz.BurstLen
	var mu sync.Mutex // guards r.fail
	var wg sync.WaitGroup
	tw := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(env.srv.URL, tr)
			defer cl.http.CloseIdleConnections()
			for b := 0; b < sz.Bursts; b++ {
				id := 2*c + b%2
				d := in.Sets[id]
				wts := make([]float64, d.n())
				for s := 0; s < sz.BurstLen; s++ {
					op := c*perClient + b*sz.BurstLen + s
					waveWeights(d, wave[id], tenantPhase(id), wts)
					body := weightsBody(wts)
					sOp := 0
					if tr != nil {
						sOp = tr.begin("op", 0, op)
					}
					t := time.Now()
					assign, migrated, err := cl.timestep(tenantName(id), body, s == sz.BurstLen-1, sOp, op)
					r.OpMs[op] = ms(time.Since(t))
					if tr != nil {
						tr.end(sOp)
					}
					chains[id] = append(chains[id], tenantStep{wave: wave[id], op: op})
					wave[id]++
					if err == nil {
						r.OpHash[op], err = checkAssign(assign, d.n(), w.K)
					}
					if err != nil {
						mu.Lock()
						r.fail(op, "%v", err)
						mu.Unlock()
						continue
					}
					if pc.eval() {
						total := 0.0
						for _, x := range wts {
							total += x
						}
						r.quality(op, d, wts, assign, w.K, migrated/total)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	r.WallS = time.Since(tw).Seconds()
	r.Points = 0
	for _, chain := range chains {
		r.Points += float64(len(chain))
	}
	r.Points *= float64(in.Sets[0].n()) // tenants are generated at one size

	// Eviction and restore counts are part of the script: one park per
	// tenant in set-up, then one restore and one evict per burst.
	st := env.reg.Stats()
	r.Counts["serve.evictions"] = float64(st.Evictions)
	r.Counts["serve.restores"] = float64(st.Restores)
	bursts := int64(serveClients * sz.Bursts)
	if st.Evictions != serveTenants+bursts || st.Restores != bursts {
		r.fail(-1, "%d evictions, %d restores; the script has %d and %d", st.Evictions, st.Restores, serveTenants+bursts, bursts)
	}
	r.PeakRSSMB = peakRSSMB()

	if pc.eval() {
		for id, d := range in.Sets {
			soloReplay(r, w, sz, d, id, chains[id])
		}
	}
	if tr != nil {
		serveLayers(r, tr, w, sz, in, env, wave)
		r.Spans = tr.spans
	}
	return r
}

// tenantConfig is the core configuration the registry builds for the
// benchmark's tenants (serve.TenantOptions with epsilon and seed set).
func tenantConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Epsilon = benchEps
	cfg.Seed = 1
	return cfg
}

// soloReplay is the serve workload's output check: the tenant's chain over
// HTTP — evictions, restores and a neighbour on the same pool included —
// must be bit-identical to the same script on a private repart.Session.
func soloReplay(r *passResult, w *workload, sz size, d *dataset, id int, chain []tenantStep) {
	wts := make([]float64, d.n())
	waveWeights(d, 0, tenantPhase(id), wts)
	ps := &geom.PointSet{Dim: d.Dim, Coords: append([]float64(nil), d.Coords...), Weight: append([]float64(nil), wts...)}
	s, err := repart.NewSession(mpi.NewWorld(serveRanks), ps, w.K, tenantConfig())
	if err != nil {
		r.fail(-1, "solo %d: %v", id, err)
		return
	}
	defer s.Close()
	if _, err := s.Partition(); err != nil {
		r.fail(-1, "solo %d: %v", id, err)
		return
	}
	next := 0
	for step := 1; next < len(chain); step++ {
		waveWeights(d, step, tenantPhase(id), wts)
		if err := s.UpdateWeights(wts); err != nil {
			r.fail(-1, "solo %d: %v", id, err)
			return
		}
		p, _, _, err := s.RepartitionIfAbove(0)
		if err != nil {
			r.fail(-1, "solo %d: %v", id, err)
			return
		}
		if step == chain[next].wave {
			if op := chain[next].op; r.OpHash[op] != 0 && hashAssign(p.Assign) != r.OpHash[op] {
				r.fail(op, "tenant %d wave step %d differs from its solo session replay", id, step)
			}
			next++
		}
	}
}

// serveLayers fills the serve workload's per-layer metrics: medians over
// the traced script's request spans, then a single-caller section on one
// resident tenant that alternates the same timestep over HTTP and on the
// Registry directly, and the codec, store and kernel microbenchmarks.
func serveLayers(r *passResult, tr *tracer, w *workload, sz size, in *inputs, env *serveEnv, wave []int) {
	spans := tr.spans
	r.Layer["serve.http_weights_ms"] = median(durationsMs(spans, "http POST weights"))
	r.Layer["serve.http_repartition_ms"] = median(durationsMs(spans, "http POST repartition"))
	r.Layer["serve.http_assign_ms"] = median(durationsMs(spans, "http GET assign"))
	r.Layer["serve.evict_ms"] = median(durationsMs(spans, "http POST evict"))
	// A restore step is an op whose first request found the tenant parked:
	// the first timestep of each burst.
	var restoreSteps []float64
	for _, s := range spans {
		if s.Name == "op" && s.Op%sz.BurstLen == 0 {
			restoreSteps = append(restoreSteps, float64(s.End-s.Start)/1e6)
		}
	}
	r.Layer["serve.restore_step_ms"] = median(restoreSteps)
	r.Layer["serve.evictions"] = r.Counts["serve.evictions"]
	r.Layer["serve.restores"] = r.Counts["serve.restores"]

	const id = 0
	d, name := in.Sets[id], tenantName(id)
	cl := newClient(env.srv.URL, tr)
	defer cl.http.CloseIdleConnections()
	wts := make([]float64, d.n())
	var cnt opCounters
	var httpMs, regMs, kmeansMs []float64
	var blocks []int32
	const pairs = 8
	for i := 0; i < 2*pairs+1; i++ { // step 0 restores the tenant, untimed
		waveWeights(d, wave[id], tenantPhase(id), wts)
		wave[id]++
		body := weightsBody(wts)
		if i == 0 || i%2 == 1 {
			sStep := tr.begin("serve.http_step", 0, -1)
			a, _, err := cl.timestep(name, body, false, sStep, -1)
			dt := tr.end(sStep)
			if err != nil {
				r.fail(-1, "http step: %v", err)
				return
			}
			blocks = a
			if i > 0 {
				httpMs = append(httpMs, ms(dt))
			}
			continue
		}
		sStep := tr.begin("serve.registry_step", 0, -1)
		err := env.reg.UpdateWeights(name, wts)
		var st repart.Stats
		if err == nil {
			_, st, _, err = env.reg.RepartitionIfAbove(nil, name, 0)
		}
		if err == nil {
			_, err = env.reg.Blocks(name)
		}
		dt := tr.end(sStep)
		if err != nil {
			r.fail(-1, "registry step: %v", err)
			return
		}
		tr.reported(sStep, -1, []string{"core.kmeans"}, []float64{st.Info.KMeansSeconds})
		regMs = append(regMs, ms(dt))
		kmeansMs = append(kmeansMs, st.Info.KMeansSeconds*1e3)
		checkInfo(r, -1, st.Info)
		cnt.addInfo(st.Info, d.n())
	}
	r.Layer["serve.registry_step_ms"] = median(regMs)
	r.Layer["serve.http_overhead_ms"] = median(httpMs) - median(regMs)
	r.Layer["repart.step_ms"] = median(regMs)
	r.Layer["core.kmeans_ms"] = median(kmeansMs)
	cnt.emitCore(r.Layer)

	// The JSON codec work the handler does per timestep, on this tenant's
	// own bodies.
	body := weightsBody(wts)
	dec := best(tr, "json.Unmarshal weights", benchReps, nil, func() {
		var req struct {
			Weights []float64 `json:"weights"`
		}
		_ = json.Unmarshal(body, &req)
	})
	r.Layer["serve.json_decode_weights_ms"] = ms(dec)
	enc := best(tr, "json.Encode assign", benchReps, nil, func() {
		_ = json.NewEncoder(io.Discard).Encode(map[string][]int32{"assign": blocks})
	})
	r.Layer["serve.json_encode_assign_ms"] = ms(enc)

	// Spill store and checkpoint codec, on this tenant's checkpoint.
	data, err := env.reg.Checkpoint(name)
	if err != nil {
		r.fail(-1, "checkpoint: %v", err)
		return
	}
	disk, err := store.NewDisk(filepath.Join(filepath.Dir(env.disk.Dir()), "storebench"))
	if err != nil {
		r.fail(-1, "store: %v", err)
		return
	}
	put := best(tr, "store.Disk.Put", benchReps, nil, func() { err = disk.Put(name, data, nil) })
	if err != nil {
		r.fail(-1, "store put: %v", err)
		return
	}
	get := best(tr, "store.Disk.Get", benchReps, nil, func() { _, _, err = disk.Get(name) })
	if err != nil {
		r.fail(-1, "store get: %v", err)
		return
	}
	r.Layer["store.put_ms"] = ms(put)
	r.Layer["store.get_ms"] = ms(get)
	r.Layer["store.put_mb"] = float64(len(data)) / (1 << 20)
	s, err := repart.NewSessionFromCheckpoint(mpi.NewWorld(serveRanks), data, tenantConfig())
	if err != nil {
		r.fail(-1, "restore: %v", err)
		return
	}
	checkpointBench(r, tr, s, tenantConfig(), serveRanks)
	s.Close()

	layerBench(r, tr, d, w.K, serveRanks, blocks)
}

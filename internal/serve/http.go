package serve

// HTTP front end over the registry verbs: JSON in/out, one route per
// Session verb, typed registry and session errors mapped to distinct
// status codes (see errStatus). cmd/geographerd mounts this handler;
// it stays in internal/serve so the mapping is testable with
// httptest and the daemon binary is wiring only.

import (
	"encoding/json"
	"errors"
	"net/http"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/repart"
)

// createRequest is the POST /v1/tenants body.
type createRequest struct {
	Name string `json:"name"`
	// Dim and Coords define the point set (flat, n·dim). Weights are
	// optional (nil = unit weights).
	Dim     int       `json:"dim"`
	Coords  []float64 `json:"coords"`
	Weights []float64 `json:"weights,omitempty"`

	K         int     `json:"k"`
	Processes int     `json:"processes,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
}

// stepResponse is the JSON shape of partition/repartition responses.
type stepResponse struct {
	Acted  bool    `json:"acted"`
	Assign []int32 `json:"assign,omitempty"`

	PreImbalance   float64 `json:"pre_imbalance,omitempty"`
	Imbalance      float64 `json:"imbalance"`
	MigratedWeight float64 `json:"migrated_weight,omitempty"`
	MigratedPoints int     `json:"migrated_points,omitempty"`
	DistCalcs      int64   `json:"dist_calcs,omitempty"`
	Incremental    bool    `json:"incremental,omitempty"`
	BoundaryFrac   float64 `json:"boundary_frac,omitempty"`
}

// errStatus maps the typed error surface to HTTP status codes. Every
// distinct failure mode the ISSUE names gets its own code: a missing
// tenant is 404, a duplicate create 409, admission rejection 429 (the
// request may succeed once a tenant goes idle), a draining registry
// 503 (shutting down — retry elsewhere), lost tenant state — corrupt
// or missing spill, quarantined — 410 (gone for good; Delete and
// re-Create), a closed session 410 likewise, a broken simulated world
// 500, a body over maxBodyBytes 413, and anything else — validation —
// 400.
func errStatus(err error) int {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrAdmission):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTenantLost):
		return http.StatusGone
	case errors.Is(err, repart.ErrClosed):
		return http.StatusGone
	case errors.Is(err, mpi.ErrBroken):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func writeErr(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(errStatus(err))
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// NewHandler returns the HTTP API over the registry:
//
//	POST   /v1/tenants                     create a tenant (ingest)
//	GET    /v1/tenants                     list tenants
//	GET    /v1/stats                       registry accounting
//	GET    /v1/tenants/{name}             tenant info
//	DELETE /v1/tenants/{name}             delete tenant
//	POST   /v1/tenants/{name}/partition    cold initial partition
//	POST   /v1/tenants/{name}/repartition  warm step; body {"eps": x}
//	                                       runs only above imbalance x
//	POST   /v1/tenants/{name}/weights      replace weights
//	POST   /v1/tenants/{name}/coords       replace coordinates
//	GET    /v1/tenants/{name}/imbalance    measure current imbalance
//	GET    /v1/tenants/{name}/assign       current partition
//	GET    /v1/tenants/{name}/checkpoint   checkpoint bytes (octet-stream)
//	POST   /v1/tenants/{name}/evict        force-park to checkpoint bytes
func NewHandler(g *Registry) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var req createRequest
		if err := readRequest(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		ps := &geom.PointSet{Dim: req.Dim, Coords: req.Coords, Weight: req.Weights}
		err := g.Create(r.Context(), req.Name, ps, TenantOptions{
			K: req.K, Processes: req.Processes, Workers: req.Workers,
			Epsilon: req.Epsilon, Seed: req.Seed,
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
	})

	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.List())
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.Stats())
	})

	mux.HandleFunc("GET /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		ti, err := g.Info(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ti)
	})

	mux.HandleFunc("DELETE /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := g.Delete(r.PathValue("name")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
	})

	mux.HandleFunc("POST /v1/tenants/{name}/partition", func(w http.ResponseWriter, r *http.Request) {
		p, info, err := g.Partition(r.Context(), r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, stepResponse{
			Acted: true, Assign: p.Assign,
			Imbalance: info.Imbalance, DistCalcs: info.DistCalcs,
		})
	})

	mux.HandleFunc("POST /v1/tenants/{name}/repartition", func(w http.ResponseWriter, r *http.Request) {
		var req repartitionRequest
		if err := readRequest(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		p, st, acted, err := g.RepartitionIfAbove(r.Context(), r.PathValue("name"), req.Eps)
		if err != nil {
			writeErr(w, err)
			return
		}
		resp := stepResponse{
			Acted:        acted,
			PreImbalance: st.PreImbalance,
			Imbalance:    st.Info.Imbalance,
		}
		if acted {
			resp.Assign = p.Assign
			resp.MigratedWeight = st.MigratedWeight
			resp.MigratedPoints = st.MigratedPoints
			resp.DistCalcs = st.Info.DistCalcs
			resp.Incremental = st.Info.CarriedBounds
			resp.BoundaryFrac = st.Info.BoundaryFrac
		} else {
			resp.Imbalance = st.PreImbalance
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/tenants/{name}/weights", func(w http.ResponseWriter, r *http.Request) {
		var req weightsRequest
		if err := readRequest(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		if err := g.UpdateWeights(r.PathValue("name"), req.Weights); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	mux.HandleFunc("POST /v1/tenants/{name}/coords", func(w http.ResponseWriter, r *http.Request) {
		var req coordsRequest
		if err := readRequest(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		if err := g.UpdateCoords(r.PathValue("name"), req.Coords); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	mux.HandleFunc("GET /v1/tenants/{name}/imbalance", func(w http.ResponseWriter, r *http.Request) {
		imb, err := g.Imbalance(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]float64{"imbalance": imb})
	})

	mux.HandleFunc("GET /v1/tenants/{name}/assign", func(w http.ResponseWriter, r *http.Request) {
		b, err := g.Blocks(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string][]int32{"assign": b})
	})

	mux.HandleFunc("GET /v1/tenants/{name}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		data, err := g.Checkpoint(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})

	mux.HandleFunc("POST /v1/tenants/{name}/evict", func(w http.ResponseWriter, r *http.Request) {
		if err := g.Evict(r.PathValue("name")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"parked": true})
	})

	return mux
}

// Command geographerd serves the partitioner as a multi-tenant HTTP
// service: named long-lived sessions (one per simulation/tenant) behind
// the registry of internal/serve, sharing the host under one bounded
// worker pool, with admission control against a resident-memory budget
// and LRU eviction of idle tenants to checkpointed spills.
//
//	geographerd -addr :8080 -max-resident-mb 1024 -max-tenants 64 -spill-dir /var/lib/geographer
//
// With -spill-dir, parked tenants are durable: evictions write
// checksummed checkpoint files under the directory (atomic rename,
// CRC32-C verified on read, corrupt files quarantined), and at startup
// the daemon scans the directory and re-registers every surviving
// tenant — so a crash (even kill -9) between verbs loses no parked
// tenant, and restored chains resume bit-identically. Without it,
// spills live in process memory and die with the daemon (the pre-spill
// behavior).
//
// Endpoints (see docs/serving.md for schemas):
//
//	POST   /v1/tenants                     create a tenant (ingest point set)
//	GET    /v1/tenants                     list tenants
//	GET    /v1/stats                       registry accounting
//	GET    /v1/tenants/{name}             tenant info
//	DELETE /v1/tenants/{name}             delete tenant
//	POST   /v1/tenants/{name}/partition    cold initial partition
//	POST   /v1/tenants/{name}/repartition  warm step if imbalance > eps
//	POST   /v1/tenants/{name}/weights      replace weights
//	POST   /v1/tenants/{name}/coords       replace coordinates
//	GET    /v1/tenants/{name}/imbalance    measure imbalance
//	GET    /v1/tenants/{name}/assign       current partition
//	GET    /v1/tenants/{name}/checkpoint   checkpoint bytes
//	POST   /v1/tenants/{name}/evict        force-park tenant
//
// Shutdown is graceful: SIGINT/SIGTERM stops accepting connections,
// lets in-flight requests finish (up to -drain-timeout), then drains
// the registry — every in-flight session verb completes and every
// resident tenant is parked to the spill store before state is
// released.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geographer/internal/serve"
	"geographer/internal/store"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxResidentMB = flag.Int64("max-resident-mb", 0, "resident-memory budget for live tenants, MiB (0 = unlimited)")
		maxTenants    = flag.Int("max-tenants", 0, "max tenants, resident + parked (0 = unlimited)")
		spillDir      = flag.String("spill-dir", "", "directory for durable tenant spills (empty = in-memory, lost on exit)")
		sweepEvery    = flag.Duration("sweep-every", time.Minute, "idle-eviction sweep period (0 disables)")
		sweepIdle     = flag.Int64("sweep-idle", 1000, "verbs of registry traffic a tenant may sit out before a sweep parks it")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	)
	flag.Parse()

	// Each of these would otherwise pass silently as some other setting:
	// a negative budget or cap as unlimited, a budget of 2^43 MiB or more
	// as an overflowed (so unlimited) byte count, an idle age below 1 as
	// one verb.
	switch {
	case *maxResidentMB < 0 || *maxResidentMB > math.MaxInt64>>20:
		log.Fatalf("-max-resident-mb %d: want 0 (unlimited) to %d", *maxResidentMB, int64(math.MaxInt64>>20))
	case *maxTenants < 0:
		log.Fatalf("-max-tenants %d: want 0 (unlimited) or more", *maxTenants)
	case *sweepEvery < 0:
		log.Fatalf("-sweep-every %v: want 0 (no sweeps) or more", *sweepEvery)
	case *sweepIdle < 1:
		log.Fatalf("-sweep-idle %d: want 1 or more", *sweepIdle)
	case *drainTimeout < 0:
		log.Fatalf("-drain-timeout %v: want 0 or more", *drainTimeout)
	}

	cfg := serve.Config{
		MaxResidentBytes: *maxResidentMB << 20,
		MaxTenants:       *maxTenants,
	}
	if *spillDir != "" {
		disk, err := store.NewDisk(*spillDir)
		if err != nil {
			log.Fatalf("spill dir: %v", err)
		}
		cfg.Store = disk
	}
	reg := serve.NewRegistry(cfg)
	if *spillDir != "" {
		n, err := reg.Recover()
		if err != nil {
			log.Fatalf("recover from %s: %v", *spillDir, err)
		}
		if n > 0 {
			log.Printf("recovered %d parked tenant(s) from %s", n, *spillDir)
		}
	}

	// Server-side timeouts close off slowloris and stuck-client hangs;
	// the generous read/write ceilings accommodate large point-set
	// ingests and big assignment responses. Per-verb cancellation is
	// separate: handlers thread each request's context into the session
	// verbs, so a disconnected client aborts its own run immediately.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(reg),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	stop := make(chan struct{})
	if *sweepEvery > 0 {
		go func() {
			tick := time.NewTicker(*sweepEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if n := reg.Sweep(*sweepIdle); n > 0 {
						log.Printf("sweep: parked %d idle tenant(s)", n)
					}
				}
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("received %s, draining", sig)
		close(stop)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("geographerd listening on %s (resident budget %d MiB, tenant cap %d, spill %q)",
		*addr, *maxResidentMB, *maxTenants, *spillDir)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if n := reg.Drain(); n > 0 {
		log.Printf("parked %d resident tenant(s) on drain", n)
	}
	log.Printf("drained, bye")
}

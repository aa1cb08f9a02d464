package main

// End-to-end crash-recovery test: build the real daemon binary, drive
// it over HTTP, kill -9 it between verbs, restart it on the same
// -spill-dir, and assert the parked tenant — and its exact partition —
// survived the crash.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles geographerd into dir and returns the binary path.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "geographerd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches the binary and waits for /v1/stats to answer.
func startDaemon(t *testing.T, bin, addr, spill string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-spill-dir", spill, "-sweep-every", "0")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			return cmd
		}
		time.Sleep(25 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatal("daemon did not become ready")
	return nil
}

// call issues a JSON request and decodes the response into out (out may
// be nil). Fails the test on any non-2xx status.
func call(t *testing.T, method, url string, body, out any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (%v)", method, url, resp.StatusCode, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillNineRecovery: create + partition + evict a tenant over HTTP,
// SIGKILL the daemon (no drain, no shutdown hook — the hard-crash
// shape), restart it from the same -spill-dir, and the tenant must be
// re-registered with a bit-identical assignment.
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	spill := filepath.Join(dir, "spill")
	addr := freeAddr(t)
	base := "http://" + addr

	const n, dim, k, p = 400, 2, 4, 2
	rng := rand.New(rand.NewSource(17))
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = rng.Float64() * 100
	}

	d1 := startDaemon(t, bin, addr, spill)
	call(t, "POST", base+"/v1/tenants", map[string]any{
		"name": "sim", "dim": dim, "coords": coords, "k": k, "processes": p,
	}, nil)
	var step struct {
		Assign []int32 `json:"assign"`
	}
	call(t, "POST", base+"/v1/tenants/sim/partition", map[string]any{}, &step)
	if len(step.Assign) != n {
		t.Fatalf("partition returned %d assignments", len(step.Assign))
	}
	want := step.Assign
	call(t, "POST", base+"/v1/tenants/sim/evict", map[string]any{}, nil)

	// kill -9: nothing graceful runs in the daemon.
	if err := d1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = d1.Wait()

	addr2 := freeAddr(t)
	base2 := "http://" + addr2
	d2 := startDaemon(t, bin, addr2, spill)
	defer func() {
		_ = d2.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = d2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = d2.Process.Kill()
		}
	}()

	var infos []struct {
		Name     string `json:"name"`
		Resident bool   `json:"resident"`
		Spilled  bool   `json:"spilled"`
	}
	call(t, "GET", base2+"/v1/tenants", nil, &infos)
	if len(infos) != 1 || infos[0].Name != "sim" || infos[0].Resident || !infos[0].Spilled {
		t.Fatalf("recovered tenant list: %+v", infos)
	}

	var got struct {
		Assign []int32 `json:"assign"`
	}
	call(t, "GET", base2+"/v1/tenants/sim/assign", nil, &got)
	if len(got.Assign) != n {
		t.Fatalf("recovered assign has %d entries", len(got.Assign))
	}
	for i := range want {
		if got.Assign[i] != want[i] {
			t.Fatalf("assignment diverged across kill -9 at point %d: %d vs %d", i, got.Assign[i], want[i])
		}
	}

	var st struct {
		Tenants  int   `json:"tenants"`
		Restores int64 `json:"restores"`
		Lost     int64 `json:"lost"`
	}
	call(t, "GET", base2+"/v1/stats", nil, &st)
	if st.Tenants != 1 || st.Restores != 1 || st.Lost != 0 {
		t.Fatalf("post-recovery stats: %+v", st)
	}

	fmt.Fprintln(os.Stderr, "kill -9 recovery round trip complete")
}

// TestDaemonRejectsInvalidFlags: a flag value that would pass as some
// other setting ends the daemon before it listens, with exit status 1
// and the flag named on stderr. A daemon that starts anyway is killed at
// the deadline, which fails the case.
func TestDaemonRejectsInvalidFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t, t.TempDir())
	cases := [][]string{
		{"-max-resident-mb", "-1"},
		{"-max-resident-mb", "8796093022208"}, // 2^43 MiB overflows int64 bytes
		{"-max-tenants", "-1"},
		{"-sweep-every", "-1s"},
		{"-sweep-idle", "0"},
		{"-drain-timeout", "-1s"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var stderr strings.Builder
			cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("exit %v, want exit status 1", err)
			}
			if !strings.Contains(stderr.String(), args[0]+" ") {
				t.Errorf("stderr %q does not name %s", stderr.String(), args[0])
			}
		})
	}
}

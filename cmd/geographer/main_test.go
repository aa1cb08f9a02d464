package main

// End-to-end input validation: build the real geographer and genmesh
// binaries and check that invalid flags end in an error message and a
// non-zero exit, never in a panic.

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCommand compiles the command in pkg into dir and returns the
// binary path.
func buildCommand(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func TestCLIsRejectInvalidInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	geographer := buildCommand(t, dir, "geographer/cmd/geographer")
	genmesh := buildCommand(t, dir, "geographer/cmd/genmesh")

	cases := []struct {
		bin     string
		args    []string
		wantErr string
	}{
		{geographer, []string{"-gen", "refined", "-n", "-5"}, "negative"},
		{geographer, []string{"-gen", "refined", "-n", "200", "-p", "0"}, "-p 0"},
		{geographer, []string{"-gen", "refined", "-n", "200", "-k", "0"}, "-k 0"},
		{geographer, []string{"-gen", "granite", "-n", "200"}, "unknown kind"},
		{genmesh, []string{"-kind", "delaunay2d", "-n", "-3"}, "negative"},
		{genmesh, []string{"-kind", "granite", "-n", "200"}, "unknown kind"},
	}
	for _, tc := range cases {
		name := filepath.Base(tc.bin) + " " + strings.Join(tc.args, " ")
		var stderr strings.Builder
		cmd := exec.Command(tc.bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("%s: exit %v, want a non-zero exit status", name, err)
		}
		if strings.Contains(stderr.String(), "panic:") {
			t.Errorf("%s: panicked:\n%s", name, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%s: stderr %q does not contain %q", name, stderr.String(), tc.wantErr)
		}
	}
}

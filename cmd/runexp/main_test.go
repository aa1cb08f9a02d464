package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// backticked matches one `name` in a markdown line.
var backticked = regexp.MustCompile("`([^`]+)`")

// TestDocsNameEveryExperiment checks that README's -exp table and
// docs/cli.md's -exp flag row name exactly the experiments in table,
// so neither can keep a row for a deleted experiment or miss a new one.
func TestDocsNameEveryExperiment(t *testing.T) {
	var want []string
	for _, e := range table {
		want = append(want, e.name)
	}
	slices.Sort(want)

	readme := readLines(t, "../../README.md")
	start := slices.Index(readme, "| `-exp` | Reproduces |")
	if start < 0 {
		t.Fatal("README.md: no -exp table")
	}
	var fromReadme []string
	for _, line := range readme[start+2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		first := strings.Split(line, "|")[1] // the -exp column
		for _, m := range backticked.FindAllStringSubmatch(first, -1) {
			fromReadme = append(fromReadme, m[1])
		}
	}
	compareNames(t, "README.md -exp table", fromReadme, want)

	var fromCLI []string
	for _, line := range readLines(t, "../../docs/cli.md") {
		if strings.HasPrefix(line, "| `-exp E` |") {
			meaning := strings.Split(line, "|")[3]
			meaning, _, _ = strings.Cut(meaning, "(") // the list, not the note on fences
			for _, m := range backticked.FindAllStringSubmatch(meaning, -1) {
				if m[1] != "all" {
					fromCLI = append(fromCLI, m[1])
				}
			}
		}
	}
	compareNames(t, "docs/cli.md -exp row", fromCLI, want)
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// compareNames reports the names documented but not in the table and
// those in the table but not documented.
func compareNames(t *testing.T, doc string, got, want []string) {
	t.Helper()
	slices.Sort(got)
	for _, name := range got {
		if _, ok := slices.BinarySearch(want, name); !ok {
			t.Errorf("%s names %q, which runexp does not have", doc, name)
		}
	}
	for _, name := range want {
		if _, ok := slices.BinarySearch(got, name); !ok {
			t.Errorf("%s does not name runexp's %q", doc, name)
		}
	}
}

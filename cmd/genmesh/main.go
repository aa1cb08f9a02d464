// Command genmesh generates the synthetic benchmark meshes of the
// evaluation and stores them in the binary mesh format, or inspects an
// existing mesh file.
//
// Examples:
//
//	genmesh -kind climate -n 100000 -seed 3 -out climate.ggm
//	genmesh -info climate.ggm
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"geographer/internal/mesh"
)

func main() {
	var (
		kind   = flag.String("kind", "delaunay2d", mesh.Kinds())
		n      = flag.Int("n", 100000, "approximate vertex count")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("out", "", "output file (binary mesh format)")
		format = flag.String("format", "binary", "output format: binary|metis (metis writes <out>.graph and <out>.xyz)")
		info   = flag.String("info", "", "inspect an existing mesh file and exit")
	)
	flag.Parse()

	if *info != "" {
		m, err := mesh.ReadFile(*info)
		if err != nil {
			fatal(err)
		}
		fmt.Println(m)
		min, med, max := mesh.EdgeLengthStats(m)
		fmt.Printf("edge lengths: min=%.4g median=%.4g max=%.4g\n", min, med, max)
		fmt.Printf("max degree: %d\n", m.G.MaxDegree())
		if m.Points.Weight != nil {
			fmt.Printf("total weight: %.4g\n", m.Points.TotalWeight())
		}
		return
	}

	m, err := mesh.Generate(*kind, *n, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(m)
	if *out == "" {
		fmt.Println("(no -out given; mesh not saved)")
		return
	}
	switch *format {
	case "binary":
		if err := mesh.WriteFile(*out, m); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	case "metis":
		prefix := strings.TrimSuffix(*out, ".graph")
		if err := mesh.WriteMETISFiles(prefix, m); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s.graph and %s.xyz\n", prefix, prefix)
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genmesh:", err)
	os.Exit(1)
}

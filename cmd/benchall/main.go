// Command benchall regenerates every table and figure of the paper's
// evaluation and prints them in the same row/series layout the paper
// reports. "correlation" and "extensions" print the overlap
// correlations and the extension experiments beside them.
//
// Timing lives elsewhere: the root package's and internal packages'
// `go test -bench` benchmarks time single stages, and perfbench times
// the serving pipeline end to end.
//
// Usage:
//
//	benchall [-scale small|full] [-run all|table1..table7|figure3..figure7|correlation|extensions]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/synth"
)

func main() {
	scale := flag.String("scale", "full", "corpus scale: small or full")
	run := flag.String("run", "all", "experiment to run (all, table1..table7, figure3..figure7, correlation, extensions)")
	flag.Parse()
	cfg, err := synth.ScaleConfig(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchall:", err)
		os.Exit(2)
	}

	s, err := experiments.NewSetup(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	mcfg := core.DefaultConfig()
	w := os.Stdout

	switch *run {
	case "all":
		if err := experiments.RenderAll(w, s, mcfg); err != nil {
			fmt.Fprintln(os.Stderr, "render:", err)
			os.Exit(1)
		}
	case "table1":
		experiments.RenderTable1(w, s.Table1(mcfg))
	case "table2":
		experiments.RenderTable2(w, s.Table2(mcfg))
	case "table3":
		experiments.RenderTable3(w, s.Table3(mcfg))
	case "table5":
		experiments.RenderTable5(w, s.Table5())
	case "table6":
		experiments.RenderTable6(w, s.Table6(mcfg))
	case "table7":
		experiments.RenderTable7(w, s.Table7(mcfg, cfg.Seed))
	case "figure3":
		experiments.RenderFigure3(w, s.Figure3(mcfg))
	case "figure4":
		series, err := s.Figure4(mcfg, 20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figure4:", err)
			os.Exit(1)
		}
		experiments.RenderFigure4(w, series)
	case "figure5":
		experiments.RenderFigure5(w, s.Figure5(mcfg))
	case "figure6":
		experiments.RenderFigure6(w, s.Figure6(mcfg))
	case "figure7":
		experiments.RenderFigure7(w, s.Figure7())
	case "correlation":
		experiments.RenderOverlapCorrelations(w, s.OverlapCorrelations(mcfg))
	case "extensions":
		experiments.RenderExtensions(w, s.Extensions(mcfg))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

// Command experiments regenerates the tables and figures of the
// CoSPARSE paper (DAC 2021) on the simulator.
//
// Usage:
//
//	experiments -fig all -scale small
//	experiments -fig 4 -scale tiny
//	experiments -fig 9 -scale full -out fig9.txt
//
// Figures: 4, 5, 6, 7, 8, 9, 10, table1, table2, table3, all; plus
// "calibrate" (re-derive the decision-tree thresholds from a fresh
// Fig. 4 sweep, §III-C), "scaling" (the §III-C3 4x8→8x8 study) and
// "reconfig" (auto vs static configurations, §IV-C2).
// Scales: tiny (1/64, seconds), small (1/16, minutes — the committed
// results in EXPERIMENTS.md), full (published sizes, hours).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cosparse/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate: 4..10, table1..table3, calibrate, scaling, reconfig, or all")
	scaleName := flag.String("scale", "small", "workload scale: tiny, small, full")
	out := flag.String("out", "", "write output to this file instead of stdout")
	format := flag.String("format", "text", "output format: text, json")
	flag.Parse()

	var scale bench.Scale
	switch *scaleName {
	case "tiny":
		scale = bench.ScaleTiny
	case "small":
		scale = bench.ScaleSmall
	case "full":
		scale = bench.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (want tiny, small or full)\n", *scaleName)
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "experiments: unknown -format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		w = f
	}

	runners := map[string]func(bench.Scale) *bench.Table{
		"table1": func(bench.Scale) *bench.Table { return bench.TableI() },
		"table2": func(bench.Scale) *bench.Table { return bench.TableII() },
		"table3": func(s bench.Scale) *bench.Table { return bench.TableIII(s) },
		"4":      func(s bench.Scale) *bench.Table { _, t := bench.Fig4(s); return t },
		"5":      func(s bench.Scale) *bench.Table { _, t := bench.Fig5(s); return t },
		"6":      func(s bench.Scale) *bench.Table { _, t := bench.Fig6(s); return t },
		"7":      func(s bench.Scale) *bench.Table { _, t := bench.Fig7(s); return t },
		"8":      func(s bench.Scale) *bench.Table { _, t := bench.Fig8(s); return t },
		"9":      func(s bench.Scale) *bench.Table { _, t := bench.Fig9(s); return t },
		"10":     func(s bench.Scale) *bench.Table { _, t := bench.Fig10(s); return t },
		"calibrate": func(s bench.Scale) *bench.Table {
			_, t := bench.Calibrate(s)
			return t
		},
		"scaling": func(s bench.Scale) *bench.Table {
			_, t := bench.ScalingStudy(s)
			return t
		},
		"reconfig": func(s bench.Scale) *bench.Table {
			_, t := bench.AutoVsStatic(s)
			return t
		},
	}
	order := []string{"table1", "table2", "table3", "4", "5", "6", "7", "8", "9", "10"}

	want := strings.Split(*fig, ",")
	if *fig == "all" {
		want = order
	}
	for _, name := range want {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown figure %q (want %s, calibrate, scaling, reconfig or all)\n",
				name, strings.Join(order, ", "))
			os.Exit(2)
		}
		start := time.Now()
		tbl := run(scale)
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("regenerated in %v", time.Since(start).Round(time.Millisecond)))
		if *format == "text" {
			tbl.Fprint(w)
		} else if err := tbl.WriteJSON(w); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
}

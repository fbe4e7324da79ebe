// Package bench regenerates every table and figure of the CoSPARSE
// paper's evaluation (§IV): each FigN function runs the corresponding
// experiment on the simulator and returns both structured results (for
// tests and programmatic use) and a formatted text table printing the
// same rows/series the paper plots.
//
// Because the trace-driven simulator costs real host time, every
// experiment takes a Scale: ScaleFull reproduces the paper's published
// matrix dimensions; ScaleSmall divides them by 16 (the default for the
// `experiments` CLI); ScaleTiny divides by 64 (used by the test suite
// and `go test -bench`). Densities, system geometries and all
// qualitative comparisons are preserved at every scale; EXPERIMENTS.md
// records the scale used for the committed results.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cosparse/internal/sim"
)

// Scale selects the workload size divisor.
type Scale int

const (
	// ScaleTiny divides the paper's dimensions by 64 (seconds).
	ScaleTiny Scale = iota
	// ScaleSmall divides by 16 (minutes) — the committed results.
	ScaleSmall
	// ScaleFull reproduces published dimensions (hours).
	ScaleFull
	// ScaleMicro divides by 1024: the smallest inputs at which the
	// shapes of Fig. 9, Fig. 10 and the auto-vs-static study still hold
	// (at half its edge budget Fig. 9's configurations stop agreeing on
	// the SSSP iteration count), which is where plain `go test` runs
	// those three; `make regress` runs them at ScaleTiny.
	ScaleMicro
)

// Div returns the dimension divisor.
func (s Scale) Div() int {
	switch s {
	case ScaleFull:
		return 1
	case ScaleSmall:
		return 16
	case ScaleMicro:
		return 1024
	default:
		return 64
	}
}

// String names the scale for table notes.
func (s Scale) String() string {
	switch s {
	case ScaleFull:
		return "full"
	case ScaleSmall:
		return "small (1/16)"
	case ScaleMicro:
		return "micro (1/1024)"
	default:
		return "tiny (1/64)"
	}
}

// Params returns the microarchitectural parameters for experiments at
// this scale: on-chip capacities (L1/L2 banks, and hence SPM sizes and
// vblock widths) shrink with the workload so working-set ratios —
// vector vs L2, merge heap vs L1 bank — match the paper's full-scale
// setup. Without this, a 1/16-size graph against full-size caches would
// hide every capacity effect Figs. 5–6 measure.
func (s Scale) Params() sim.Params {
	p := sim.DefaultParams()
	div := 1
	switch s {
	case ScaleSmall:
		div = 8
	case ScaleTiny, ScaleMicro:
		div = 16
	}
	p.L1BankBytes /= div
	if p.L1BankBytes < 256 {
		p.L1BankBytes = 256
	}
	p.L2BankBytes /= div
	if p.L2BankBytes < 512 {
		p.L2BankBytes = 512
	}
	return p
}

// EdgeBudget caps the edges of real-graph stand-ins per scale.
func (s Scale) EdgeBudget() int {
	switch s {
	case ScaleFull:
		return 1 << 62
	case ScaleSmall:
		return 1 << 20
	case ScaleMicro:
		return 10_000
	default:
		return 150_000
	}
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f2, f3, pct format numbers the way the paper's figures label them.
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

// sweepMatrix describes one synthetic input of the Fig. 4–6 sweeps:
// the paper uses four uniform matrices with N from 131k to 1M and a
// constant ~4M nonzeros (so the largest is also the sparsest).
type sweepMatrix struct {
	Name string
	N    int
	NNZ  int
}

// sweepMatrices returns the Fig. 4–6 inputs at the given scale. The
// nonzero count scales with the dimension so per-column averages (and
// hence reuse and merge-list behaviour) match the paper's setup.
func sweepMatrices(s Scale) []sweepMatrix {
	d := s.Div()
	base := []struct {
		n   int
		nnz int
	}{
		{131072, 4000000},
		{262144, 4000000},
		{524288, 4000000},
		{1048576, 4000000},
	}
	out := make([]sweepMatrix, len(base))
	for i, b := range base {
		n := b.n / d
		nnz := b.nnz / d
		r := float64(nnz) / (float64(n) * float64(n))
		out[i] = sweepMatrix{
			Name: fmt.Sprintf("N=%s r=%.1e", kfmt(n), r),
			N:    n,
			NNZ:  nnz,
		}
	}
	return out
}

func kfmt(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n/(1<<20))
	case n >= 1024:
		return fmt.Sprintf("%dk", n/1024)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// vecDensities is the x-axis of Figs. 4–6.
var vecDensities = []float64{0.0025, 0.005, 0.01, 0.02, 0.04}

// WriteJSON emits the table (title, header, rows, notes) as JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

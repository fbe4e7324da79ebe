// Command cosparse runs a graph-analytics algorithm on the CoSPARSE
// framework (simulated reconfigurable hardware) and prints the
// per-iteration reconfiguration trace and the run report.
//
// Usage:
//
//	cosparse -algo sssp -graph suite:pokec -graph-scale 64 -tiles 16 -pes 16
//	cosparse -algo pr -graph powerlaw:100000:1000000 -iters 10
//	cosparse -algo bfs -graph edges.txt -src 0
//	cosparse -algo bfs -graph edges.txt -sw ip -hw scs   # pin a configuration
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cosparse"
)

func main() {
	algo := flag.String("algo", "pr", "algorithm: bfs, sssp, pr, cf")
	graph := flag.String("graph", "powerlaw:10000:100000", "graph: FILE, suite:NAME, uniform:N:E, or powerlaw:N:E")
	graphScale := flag.Int("graph-scale", 64, "downscale factor for suite graphs (1 = published size)")
	undirected := flag.Bool("undirected", false, "treat an edge-list file as undirected")
	tiles := flag.Int("tiles", 16, "tiles in the simulated machine")
	pes := flag.Int("pes", 16, "PEs per tile")
	src := flag.Int("src", -1, "source vertex for bfs/sssp (-1 = highest out-degree)")
	iters := flag.Int("iters", 10, "iterations for pr/cf")
	alpha := flag.Float64("alpha", 0.15, "PageRank damping factor")
	beta := flag.Float64("beta", 0.05, "CF learning rate")
	lambda := flag.Float64("lambda", 0.01, "CF regularization")
	seed := flag.Uint64("seed", 42, "generator seed")
	backend := flag.String("backend", "sim", "execution backend: sim (cycle-accurate timing model) or native (goroutine-parallel host run)")
	format := flag.String("format", "auto", "graph storage format: auto, csr, or dvcsr (delta-varint)")
	sw := flag.String("sw", "auto", "software configuration: auto, ip, op")
	hw := flag.String("hw", "auto", "hardware configuration: auto, sc, scs, pc, ps")
	printTrace := flag.Bool("print-trace", true, "print the per-iteration reconfiguration trace")
	jsonOut := flag.String("json", "", "write the report as JSON to this file")
	flag.Parse()

	a, err := cosparse.ParseAlgo(*algo)
	if err != nil {
		fail(err)
	}
	if *tiles <= 0 || *pes <= 0 {
		fail(fmt.Errorf("-tiles and -pes must be positive, got %d/%d", *tiles, *pes))
	}
	if *iters <= 0 {
		fail(fmt.Errorf("-iters must be positive, got %d", *iters))
	}
	if *graphScale <= 0 {
		fail(fmt.Errorf("-graph-scale must be positive, got %d", *graphScale))
	}
	if *src < -1 {
		fail(fmt.Errorf("-src must be a vertex id or -1 for highest out-degree, got %d", *src))
	}

	g, err := loadGraph(*graph, *graphScale, *undirected, a.ValueMode(), *seed)
	if err != nil {
		fail(err)
	}
	gf, err := cosparse.ParseFormat(*format)
	if err != nil {
		fail(err)
	}
	if g, err = g.InFormat(gf); err != nil {
		fail(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, density %.2e, format %s (%d resident bytes)\n",
		g.NumVertices(), g.NumEdges(), g.Density(), g.Format(), g.ResidentBytes())

	be, err := cosparse.ParseBackend(*backend)
	if err != nil {
		fail(err)
	}
	opts := []cosparse.Option{cosparse.WithBackend(be)}
	switch strings.ToLower(*sw) {
	case "auto":
	case "ip":
		opts = append(opts, cosparse.WithSoftware(cosparse.InnerProduct))
	case "op":
		opts = append(opts, cosparse.WithSoftware(cosparse.OuterProduct))
	default:
		fail(fmt.Errorf("unknown -sw %q", *sw))
	}
	switch strings.ToLower(*hw) {
	case "auto":
	case "sc":
		opts = append(opts, cosparse.WithHardware(cosparse.ForceSC))
	case "scs":
		opts = append(opts, cosparse.WithHardware(cosparse.ForceSCS))
	case "pc":
		opts = append(opts, cosparse.WithHardware(cosparse.ForcePC))
	case "ps":
		opts = append(opts, cosparse.WithHardware(cosparse.ForcePS))
	default:
		fail(fmt.Errorf("unknown -hw %q", *hw))
	}

	eng, err := cosparse.New(g, cosparse.System{Tiles: *tiles, PEsPerTile: *pes}, opts...)
	if err != nil {
		fail(err)
	}

	s := int32(*src)
	if s < 0 {
		s = maxDegree(g)
	}
	if a.NeedsSource() && int(s) >= g.NumVertices() {
		fail(fmt.Errorf("-src %d out of range [0,%d)", s, g.NumVertices()))
	}

	ctx := context.Background()
	var rep *cosparse.Report
	switch a {
	case cosparse.AlgoBFS:
		var res *cosparse.BFSResult
		res, rep, err = eng.BFSContext(ctx, s)
		if err == nil {
			reached := 0
			for _, l := range res.Level {
				if l >= 0 {
					reached++
				}
			}
			fmt.Printf("bfs from %d: reached %d/%d vertices\n", s, reached, g.NumVertices())
		}
	case cosparse.AlgoSSSP:
		var dist []float32
		dist, rep, err = eng.SSSPContext(ctx, s)
		if err == nil {
			sum, n := 0.0, 0
			for _, d := range dist {
				if d < float32(1e30) {
					sum += float64(d)
					n++
				}
			}
			fmt.Printf("sssp from %d: reached %d vertices, mean distance %.4f\n", s, n, sum/float64(max(n, 1)))
		}
	case cosparse.AlgoPageRank:
		var pr []float32
		pr, rep, err = eng.PageRankContext(ctx, *iters, float32(*alpha))
		if err == nil {
			best, bv := 0, float32(0)
			for i, v := range pr {
				if v > bv {
					best, bv = i, v
				}
			}
			fmt.Printf("pagerank: top vertex %d with score %.5f\n", best, bv)
		}
	case cosparse.AlgoCF:
		_, rep, err = eng.CFContext(ctx, *iters, float32(*beta), float32(*lambda))
		if err == nil {
			fmt.Printf("cf: trained %d iterations\n", *iters)
		}
	}
	if err != nil {
		fail(err)
	}

	fmt.Println(rep.Summary())
	if *printTrace {
		fmt.Print(rep.Trace())
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, rep.WriteJSON); err != nil {
			fail(err)
		}
	}
}

func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func loadGraph(spec string, scale int, undirected bool, mode cosparse.ValueMode, seed uint64) (*cosparse.Graph, error) {
	switch {
	case strings.HasPrefix(spec, "suite:"):
		name := strings.TrimPrefix(spec, "suite:")
		if name == "" {
			return nil, fmt.Errorf("malformed -graph %q: want suite:NAME", spec)
		}
		return cosparse.GenerateSuite(name, scale, mode, seed)
	case strings.HasPrefix(spec, "uniform:"), strings.HasPrefix(spec, "powerlaw:"):
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("malformed -graph %q: want %s:N:E", spec, parts[0])
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("malformed -graph %q: bad vertex count: %v", spec, err)
		}
		e, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("malformed -graph %q: bad edge count: %v", spec, err)
		}
		if n <= 0 || e < 0 {
			return nil, fmt.Errorf("malformed -graph %q: need positive vertices and non-negative edges", spec)
		}
		if parts[0] == "uniform" {
			return cosparse.GenerateUniform(n, e, mode, seed)
		}
		return cosparse.GeneratePowerLaw(n, e, mode, seed)
	default:
		f, err := os.Open(spec)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return cosparse.LoadEdgeList(f, undirected)
	}
}

// maxDegree returns the vertex of highest out-degree, the lowest id on
// a tie.
func maxDegree(g *cosparse.Graph) int32 {
	deg := g.OutDegrees()
	best := 0
	for v, d := range deg {
		if d > deg[best] {
			best = v
		}
	}
	return int32(best)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fail(err error) {
	// Library errors already carry the package prefix; don't double it.
	fmt.Fprintf(os.Stderr, "cosparse: %s\n", strings.TrimPrefix(err.Error(), "cosparse: "))
	os.Exit(1)
}

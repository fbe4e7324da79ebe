// Command benchmark is the repository's one benchmark: six workloads
// over the library and the service, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md.
//
//	go run ./benchmark                      every workload, both runs, a table and a result file
//	go run ./benchmark -workload W -trace 0 one run; the last line of stdout is the result
//	go run ./benchmark compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// defaultSeconds is the measured window; BENCHMARK.json's run_seconds
// says the same (spec_test.go checks).
const defaultSeconds = 10

const (
	outDir  = "benchmark/out"
	dataDir = "benchmark/data"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run only this workload, in this process, and print one result line")
		seed     = flag.Uint64("seed", 42, "seed every input is made from")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.String("trace", "0", "with -workload: 1 records spans, writes "+outDir+"/trace-<workload>.json and reports the per-layer metrics; 0 reports the end-to-end ones")
		out      = flag.String("out", "", "write the full result (host, sample counts, checks) to this file; default "+outDir+"/result.json when running every workload")
		runs     = flag.Int("runs", 1, "without -workload: untraced runs per workload (compare wants at least 4 to judge spread)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != "0" && *trace != "1" {
		fatalf("-trace takes 0 or 1, got %q", *trace)
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *runs, *out))
	}
	os.Exit(runOne(runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace == "1",
		DataRoot: dataDir, TracePath: filepath.Join(outDir, "trace-"+*workload+".json"),
	}, *out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// resultLine is the last line of a single run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload in this process and prints its result line.
func runOne(cfg runConfig, out string) int {
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g traced=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Traced)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	metrics, err := emit(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, c := range res.Checks {
		fmt.Fprintf(os.Stderr, "  check %-48s %10.4f  want %-8s %s\n", c.Name, c.Value, c.Want, okWord(c.OK))
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "NOT MET"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultFile is what running every workload writes and compare reads.
type resultFile struct {
	Meta      hostMeta         `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string       `json:"name"`
	Runs []*runResult `json:"runs"`
}

// runAll runs every workload in a child process of its own — so that
// rss_peak_mb is the workload's, not the sum — runs untraced times plus
// once traced, then prints every metric and writes the result file.
func runAll(seed uint64, seconds float64, runs int, out string) int {
	if out == "" {
		out = filepath.Join(outDir, "result.json")
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	file := resultFile{Meta: readHostMeta(seed, seconds, dataDir)}
	status := 0
	for _, w := range workloads {
		wr := workloadResult{Name: w.Name}
		for i := 0; i <= runs; i++ {
			traced := i == runs
			res, err := runChild(exe, w.Name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			wr.Runs = append(wr.Runs, res)
		}
		file.Workloads = append(file.Workloads, wr)
		printWorkload(wr)
	}
	if err := writeJSON(out, file); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\nresult file: %s   traces: %s/trace-<workload>.json\n", out, outDir)
	return status
}

// runChild runs one workload in a fresh process and reads back the full
// result the child wrote.
func runChild(exe, workload string, seed uint64, seconds float64, traced bool) (*runResult, error) {
	tmp := filepath.Join(outDir, fmt.Sprintf(".run-%s-%d.json", workload, os.Getpid()))
	defer os.Remove(tmp)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", tmp)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(tmp)
	if err != nil {
		return nil, fmt.Errorf("child left no result (%v)", runErr)
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// byTrace splits a workload's runs.
func (w workloadResult) byTrace(traced bool) []*runResult {
	var out []*runResult
	for _, r := range w.Runs {
		if r.Traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// values collects one metric over a set of runs.
func values(runs []*runResult, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if x, ok := r.Metrics[name]; ok {
			v = append(v, x)
		}
	}
	return v
}

func failShare(runs []*runResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

func printWorkload(w workloadResult) {
	fmt.Printf("\n== %s ==\n", w.Name)
	plain, traced := w.byTrace(false), w.byTrace(true)
	if len(plain) > 0 {
		fmt.Printf("end-to-end (untraced, median of %d run(s))\n", len(plain))
		for _, d := range endToEnd {
			v := values(plain, d.Name)
			fmt.Printf("  %-36s %16.6g %-7s n=%d\n", d.Name, median(v), d.Unit, plain[0].Samples[d.Name])
		}
		fmt.Printf("  %-36s %16.6g %-7s n=%d\n", "fail_share", failShare(plain), "ratio", plain[0].Attempted)
	}
	for _, r := range traced {
		fmt.Println("per-layer (traced run)")
		for _, d := range perLayer {
			fmt.Printf("  %-36s %16.6g %-7s n=%d\n", d.Name, r.Metrics[d.Name], d.Unit, r.Samples[d.Name])
		}
		fmt.Printf("  %-36s %16.6g %-7s n=%d\n", "fail_share", failShare(traced), "ratio", r.Attempted)
		for _, c := range r.Checks {
			fmt.Printf("  check %-42s %10.4f  want %-8s %s\n", c.Name, c.Value, c.Want, okWord(c.OK))
		}
	}
	for _, r := range w.Runs {
		if !r.Correct {
			fmt.Printf("  INCORRECT (%s run): %s\n", map[bool]string{false: "untraced", true: "traced"}[r.Traced], strings.Join(r.Notes, "; "))
		}
	}
}

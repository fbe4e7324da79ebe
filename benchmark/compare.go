package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// failShareSlack is how far fail_share may rise, in absolute terms,
// before compare calls it a regression.
const failShareSlack = 0.005

// verdict is compare's judgement of one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegress    verdict = "regress"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of a change (b) with the runs of its base (a)
// for one metric. A metric whose run-to-run spread is wider than its
// bound is unresolved, not unchanged, unless every run of one side
// beats every run of the other.
func judge(d metricDef, a, b []float64, sameSeed bool) verdict {
	// worse is how much b's median is worse than a's, as a share of a's.
	ma, mb, worse := median(a), median(b), 0.0
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	if d.Exact && sameSeed {
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != ma {
				return verdictRegress
			}
		}
		return verdictOK
	}
	bBetter := func(x, y float64) bool {
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allB := func(better bool) bool {
		for _, x := range b {
			for _, y := range a {
				if bBetter(x, y) != better || x == y {
					return false
				}
			}
		}
		return true
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		switch {
		case allB(true):
			return verdictOK
		case allB(false) && worse > d.Bound:
			return verdictRegress
		}
		return verdictUnresolved
	}
	if worse > d.Bound {
		return verdictRegress
	}
	return verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain implements `benchmark compare A.json B.json`: A is the
// base, B the change. It returns the exit code: 1 if anything
// regressed, 2 if the files cannot be compared.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json CHANGE.json")
		return 2
	}
	a, err := readResultFile(args[0])
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(args[1]); err == nil {
			return compareFiles(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func compareFiles(a, b *resultFile) int {
	sameSeed := a.Meta.Seed == b.Meta.Seed
	fmt.Printf("base:   commit %s seed %d, %d CPUs, %s\nchange: commit %s seed %d, %d CPUs, %s\n",
		a.Meta.Commit, a.Meta.Seed, a.Meta.NumCPU, a.Meta.GoVersion,
		b.Meta.Commit, b.Meta.Seed, b.Meta.NumCPU, b.Meta.GoVersion)
	if !sameSeed {
		fmt.Println("seeds differ: exact metrics are compared within their bounds, not for equality")
	}
	fmt.Printf("\n%-20s %-18s %14s %14s %18s %7s %7s %7s  %s\n",
		"workload", "metric", "base median", "change median", "change/base", "bound", "spreadA", "spreadB", "verdict")
	regressed := false
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w workloadResult) bool { return w.Name == wa.Name })
		if i < 0 {
			fmt.Printf("%-20s missing from the change: regress\n", wa.Name)
			regressed = true
			continue
		}
		wb := b.Workloads[i]
		pa, pb := wa.byTrace(false), wb.byTrace(false)
		for _, d := range endToEnd {
			va, vb := values(pa, d.Name), values(pb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-20s %-18s no untraced run on one side: regress\n", wa.Name, d.Name)
				regressed = true
				continue
			}
			v := judge(d, va, vb, sameSeed)
			ma, mb := median(va), median(vb)
			fmt.Printf("%-20s %-18s %14.6g %14.6g %9.4f of %-6.4g %7.3f %7.3f %7.3f  %s\n",
				wa.Name, d.Name, ma, mb, mb/ma, ma, d.Bound, spread(va), spread(vb), v)
			regressed = regressed || v == verdictRegress
		}
		fa, fb := failShare(pa), failShare(pb)
		fv := verdictOK
		if fb > fa+failShareSlack {
			fv, regressed = verdictRegress, true
		}
		fmt.Printf("%-20s %-18s %14.6g %14.6g %18s %7s %7s %7s  %s\n", wa.Name, "fail_share", fa, fb, "", "+0.005", "", "", fv)

		// Counts that repeat exactly must still be equal: a moved count
		// is a changed policy or a changed model, whatever the clock says.
		ta, tb := wa.byTrace(true), wb.byTrace(true)
		for _, d := range perLayer {
			va, vb := values(ta, d.Name), values(tb, d.Name)
			if !d.Exact || !sameSeed || len(va) == 0 || len(vb) == 0 {
				continue
			}
			if judge(d, va, vb, true) != verdictOK {
				fmt.Printf("%-20s %-18s %14.6g %14.6g  exact count moved: regress\n", wa.Name, d.Name, median(va), median(vb))
				regressed = true
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// writeRecords writes one JSON line per record; mode is os.O_APPEND or
// os.O_TRUNC.
func writeRecords(path string, mode int, recs []record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series gathers, per workload, the values each metric took over the
// runs of one kind (normal or traced).
func series(recs []record, traced bool) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range recs {
		if r.Trace != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

func definedMetrics(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printSpread prints each metric's median, quartiles and run-to-run
// spread (interquartile range over median) for one workload.
func printSpread(w io.Writer, workload string, runs []record) {
	if len(runs) == 0 {
		return
	}
	vals := series(runs, runs[0].Trace)[workload]
	fmt.Fprintf(w, "\n== %s: %d runs\n   %-44s %12s %12s %12s %8s %8s\n", workload, len(runs),
		"metric", "median", "q1", "q3", "spread", "bound")
	for _, d := range definedMetrics(runs[0].Trace) {
		q1, q3 := quartiles(vals[d.Name])
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "   %-44s %12.4f %12.4f %12.4f %7.2f%% %8s\n", d.Name, median(vals[d.Name]), q1, q3,
			100*spread(vals[d.Name]), bound)
	}
}

// noise is the wider of the two sides' run-to-run spreads.
func noise(base, next []float64) float64 {
	return math.Max(spread(base), spread(next))
}

// verdict applies one end-to-end metric's bound to a (metric, workload)
// row: REGRESSED when the new median is worse than the base by more than
// the bound; a row whose run-to-run spread exceeds the bound is
// unresolved, not unchanged, unless every new run beats every base run.
func verdict(d metricDef, base, next []float64) string {
	mb, mn := median(base), median(next)
	worse := div(mn-mb, mb)
	if d.Better == higher {
		worse = -worse
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			if (d.Better == lower && n >= b) || (d.Better == higher && n <= b) {
				allBetter = false
			}
		}
	}
	switch {
	case worse > d.Bound:
		return "REGRESSED"
	case allBetter:
		return "better"
	case noise(base, next) > d.Bound:
		return "unresolved"
	}
	return "ok"
}

// compareFiles applies the bounds to every (end-to-end metric, workload)
// row of two record files and prints every ratio with its base. Rows of
// traced runs, which have no bounds, are printed as ratios only. It
// returns an error if any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	regressed := 0
	for _, traced := range []bool{false, true} {
		base, next := series(oldRecs, traced), series(newRecs, traced)
		for _, wd := range workloadDefs {
			if base[wd.Name] == nil || next[wd.Name] == nil {
				continue
			}
			fmt.Fprintf(w, "\n== %s (trace=%v)\n   %-44s %12s %12s %8s %8s %8s  %s\n", wd.Name, traced,
				"metric", "base", "new", "new/base", "spread", "bound", "verdict")
			for _, d := range definedMetrics(traced) {
				b, n := base[wd.Name][d.Name], next[wd.Name][d.Name]
				if len(b) == 0 || len(n) == 0 {
					continue
				}
				bound, v := "", ""
				if !traced {
					v = verdict(d, b, n)
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
					if v == "REGRESSED" {
						regressed++
					}
				}
				fmt.Fprintf(w, "   %-44s %12.4f %12.4f %8.3f %7.2f%% %8s  %s\n", d.Name, median(b), median(n),
					div(median(n), median(b)), 100*noise(b, n), bound, v)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) rows regressed past their bound", regressed)
	}
	return nil
}

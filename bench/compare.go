package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// errRegressed makes -compare exit non-zero.
var errRegressed = errors.New("at least one end-to-end metric regressed")

func loadResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects one end-to-end metric's value from every untraced run of
// one workload in a result file.
func (f *resultFile) series(workload, name string) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// spread is a set's own run-to-run variation as a share of its median: the
// distance between the quartiles from four runs up, the range below that.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return ratio(hi-lo, median(s))
}

// quartiles of a sorted sample, by the exclusive method Python's
// statistics.quantiles(n=4) uses.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the bound and a verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	regressed := false
	fmt.Fprintf(w, "%-10s %-16s %12s %12s %8s %6s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, sp := range specs {
		for _, d := range endToEndDefs {
			va, vb := a.series(sp.name, d.name), b.series(sp.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.better == "higher" {
				worse = -worse
			}
			noise := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case worse > d.bound && noise > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-10s %-16s %12.5g %12.5g %+7.1f%% %5.0f%% %7.1f%%  %s\n",
				sp.name, d.name, ma, mb, 100*worse, 100*d.bound, 100*noise, verdict)
		}
	}
	if regressed {
		return errRegressed
	}
	return nil
}

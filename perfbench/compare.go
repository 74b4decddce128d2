package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Compare mode: the parent's and the change's end-to-end result records
// side by side. For each workload and metric it prints both sides'
// medians and quartiles, how many run pairs the change won, and a
// verdict under BENCHMARK.json's bounds (choosing-metrics §6 and §8):
//
//   - improved: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither), and the medians differ by more
//     than the parent's own quartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unresolved: otherwise, when either side's run-to-run spread
//     (quartile distance over median) exceeds the bound, unless every
//     run of the change reads better than every run of the parent;
//   - unchanged: otherwise.

type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "directory of the parent's result records")
	head := fs.String("head", "", "directory of the change's result records")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *head == "" {
		return errors.New("need -base and -head result directories")
	}
	data, err := os.ReadFile(*bench)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", *bench, err)
	}
	baseRecs, err := loadRecords(*base)
	if err != nil {
		return err
	}
	headRecs, err := loadRecords(*head)
	if err != nil {
		return err
	}
	var names []string
	for n := range baseRecs {
		if _, ok := headRecs[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("no workload has end-to-end records on both sides")
	}
	fmt.Fprintf(w, "%-14s %-16s %5s  %-32s  %-32s  %7s  %s\n",
		"workload", "metric", "runs", "base q1/median/q3", "head q1/median/q3", "wins", "verdict")
	for _, n := range names {
		for _, m := range bf.EndToEnd {
			bv, hv := metricValues(baseRecs[n], m.Name), metricValues(headRecs[n], m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			c := compareMetric(bv, hv, m.Better, m.Bound)
			fmt.Fprintf(w, "%-14s %-16s %2d/%-2d  %10.4g/%10.4g/%10.4g  %10.4g/%10.4g/%10.4g  %3d/%-3d  %s (bound %.0f%%)\n",
				n, m.Name, len(bv), len(hv), c.base[0], c.base[1], c.base[2],
				c.head[0], c.head[1], c.head[2], c.wins, c.pairs, c.verdict, 100*m.Bound)
		}
	}
	return nil
}

// loadRecords reads a directory's untraced result records, grouped by
// workload and ordered by seed (then file name), so the i-th runs of
// two sides pair up.
func loadRecords(dir string) (map[string][]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Trace || rec.Workload == "" {
			continue
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	for _, recs := range out {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seed < recs[j].Seed })
	}
	return out, nil
}

func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparison is one workload×metric row.
type comparison struct {
	base, head  [3]float64 // q1, median, q3
	wins, pairs int
	verdict     string
}

// minPairs is the fewest run pairs a claimed improvement rests on.
const minPairs = 10

func compareMetric(base, head []float64, better string, bound float64) comparison {
	var c comparison
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.head[0], c.head[1], c.head[2] = quartiles(head)
	lower := better == "lower"
	isBetter := func(h, b float64) bool {
		if lower {
			return h < b
		}
		return h > b
	}
	c.pairs = min(len(base), len(head))
	for i := 0; i < c.pairs; i++ {
		if isBetter(head[i], base[i]) {
			c.wins++
		}
	}
	bm, hm := c.base[1], c.head[1]
	rel := func(x float64) float64 {
		if bm == 0 {
			return 0
		}
		return x / math.Abs(bm)
	}
	worse := rel(hm - bm)
	if !lower {
		worse = -worse
	}
	spread := rel(c.base[2] - c.base[0])
	if hm != 0 {
		spread = max(spread, (c.head[2]-c.head[0])/math.Abs(hm))
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && isBetter(h, b)
		}
	}
	switch {
	case c.pairs >= minPairs && 10*c.wins >= 9*c.pairs &&
		isBetter(hm, bm) && math.Abs(hm-bm) > c.base[2]-c.base[0]:
		c.verdict = "improved"
	case worse > bound:
		c.verdict = "regressed"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

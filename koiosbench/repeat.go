package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// batch is a saved set of runs: workload → one result line per seed.
type batch map[string][]resultLine

// runChild runs one benchmark run in a fresh process and returns its
// result line and its "traced …" lines.
func runChild(args ...string) (resultLine, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return resultLine{}, nil, fmt.Errorf("%v: %w\n%s", args, err, outb)
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	var rl resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		return resultLine{}, nil, fmt.Errorf("%v: last line: %w", args, err)
	}
	traced := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(outb))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[0] == "traced" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				traced[f[1]] = v
			}
		}
	}
	return rl, traced, nil
}

// repeatRuns runs every selected workload n times (seeds 1..n), prints
// per-metric medians and quartiles, then one traced run per workload with
// its end-to-end figures beside the untraced medians (the tracing
// overhead), and saves the batch.
func repeatRuns(bf *benchmarkFile, n, seconds int, only, work, out string) error {
	b := batch{}
	for _, w := range workloads {
		if only != "" && !strings.Contains(","+only+",", ","+w.name+",") {
			continue
		}
		for seed := 1; seed <= n; seed++ {
			rl, _, err := runChild("--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
				"--trace", "0", "-work", work)
			if err != nil {
				return err
			}
			b[w.name] = append(b[w.name], rl)
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n", w.name, seed, rl.Correct, rl.Attempted, rl.Failed)
		}
		printBatch(bf, w.name, b[w.name])
		_, traced, err := runChild("--workload", w.name, "--seed", "1", "--seconds", fmt.Sprint(seconds), "--trace", "1", "-work", work)
		if err != nil {
			return err
		}
		for _, d := range bf.EndToEnd {
			med := median(values(b[w.name], d.Name))
			fmt.Printf("  %-14s traced %.4f vs untraced median %.4f (%+.1f%%)\n", d.Name, traced[d.Name], med, 100*(traced[d.Name]-med)/med)
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func values(runs []resultLine, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return xs
}

// spread is (Q3 − Q1) / median, the run-to-run dispersion checked against
// each metric's bound.
func spread(xs []float64) (med, sp float64) {
	q1, q2, q3 := quartiles(xs)
	return q2, (q3 - q1) / q2
}

func printBatch(bf *benchmarkFile, name string, runs []resultLine) {
	var att, fail int
	for _, r := range runs {
		att += r.Attempted
		fail += r.Failed
	}
	fmt.Printf("%s: %d runs, %d attempted, %d failed\n", name, len(runs), att, fail)
	for _, d := range bf.EndToEnd {
		xs := values(runs, d.Name)
		q1, med, q3 := quartiles(xs)
		_, sp := spread(xs)
		flag := ""
		if d.Name != "setup_s" && sp > d.Bound/3 {
			flag = "  <- spread above a third of the bound"
		}
		fmt.Printf("  %-14s median %.4f %s  Q1 %.4f  Q3 %.4f  spread %.3f (bound %.2f)%s\n", d.Name, med, d.Unit, q1, q3, sp, d.Bound, flag)
	}
}

// compareBatches checks batch B against batch A the way a regression gate
// does: per workload and end-to-end metric, B's median may be worse than
// A's by at most the bound, each batch's spread (setup_s excepted) must
// stay within the bound, and the failed shares must be equal.
func compareBatches(bf *benchmarkFile, fa, fb string) bool {
	load := func(f string) batch {
		data, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		var b batch
		if err := json.Unmarshal(data, &b); err != nil {
			fatal(fmt.Errorf("%s: %w", f, err))
		}
		return b
	}
	a, b := load(fa), load(fb)
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		ra, rb := a[name], b[name]
		if len(rb) == 0 {
			fmt.Printf("%s: missing from %s\n", name, fb)
			ok = false
			continue
		}
		share := func(runs []resultLine) float64 {
			var att, fail int
			for _, r := range runs {
				att += r.Attempted
				fail += r.Failed
			}
			return float64(fail) / float64(att)
		}
		if share(ra) != share(rb) {
			fmt.Printf("%s: failed share differs: %g vs %g\n", name, share(ra), share(rb))
			ok = false
		}
		for _, d := range bf.EndToEnd {
			ma, sa := spread(values(ra, d.Name))
			mb, sb := spread(values(rb, d.Name))
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "WORSE beyond bound"
				ok = false
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "spread beyond bound"
				ok = false
			}
			fmt.Printf("%-15s %-14s A %.4f (spread %.3f)  B %.4f (spread %.3f)  worse %+.1f%% (bound %.0f%%)  %s\n",
				name, d.Name, ma, sa, mb, sb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}

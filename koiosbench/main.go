// Command koiosbench is the repository's benchmark: it drives fixed,
// seeded workloads through the paths users hit (the HTTP server over a
// durable registry, and the koios library), checks every run's answers
// against an independent oracle, and prints the end-to-end metrics named
// in BENCHMARK.json — or, with --trace 1, the per-layer metrics.
//
// One run (from the repository root):
//
//	bash koiosbench/run.sh --workload dblp-read --seed 1 --seconds 20 --trace 0
//
// Repeat mode runs every workload N times in fresh processes and prints
// medians and quartiles; compare mode checks two saved batches against the
// bounds in BENCHMARK.json:
//
//	bash koiosbench/run.sh -repeat 10 -seconds 20 -out .bench_build/a.json
//	bash koiosbench/run.sh -compare .bench_build/a.json,.bench_build/b.json
//
// See koiosbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed every input derives from")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		work    = flag.String("work", ".bench_build", "directory for data directories, traces and batches")
		repeat  = flag.Int("repeat", 0, "repeat mode: run each workload this many times (seeds 1..N) in fresh processes")
		only    = flag.String("workloads", "", "repeat mode: comma-separated workloads (default all)")
		out     = flag.String("out", "", "repeat mode: save the batch to this file")
		compare = flag.String("compare", "", "compare two saved batches A,B against the bounds in BENCHMARK.json")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
	)
	flag.Parse()
	bf, err := loadBenchmarkFile()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare != "":
		files := strings.Split(*compare, ",")
		if len(files) != 2 {
			fatal(fmt.Errorf("-compare takes two batch files"))
		}
		if !compareBatches(bf, files[0], files[1]) {
			os.Exit(1)
		}
		return
	case *repeat > 0:
		if err := repeatRuns(bf, *repeat, *seconds, *only, *work, *out); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, cpuprofile: *cpuprof})
	if err != nil {
		fatal(err)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	defs := bf.EndToEnd
	if *trace == 1 {
		defs = bf.PerLayer
		for _, d := range bf.EndToEnd {
			fmt.Printf("traced %s %.4f %s (compare with an untraced run for the tracing overhead)\n", d.Name, res.metrics[d.Name], d.Unit)
		}
	}
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			fatal(fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name))
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Printf("%s %v %s\n", d.Name, v, d.Unit)
	}
	for _, e := range res.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "koiosbench:", err)
	os.Exit(2)
}

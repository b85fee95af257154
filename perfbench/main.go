// Command perfbench is the repository's end-to-end benchmark. It runs the
// TSens serving stack and solver in process, drives one named workload for
// a fixed time, checks every output against a reference that does not use
// the incremental engine, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload reads-releases --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics of a traced
// run (spans recorded around calls into each layer, see trace.go) and the
// tracing overhead. The line before the result records the run's context:
// seed, CPUs, Go version, fixture sizes, rates, WAL placement and flush
// policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the run's WAL directories and span dumps.
	dir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it
// (workloads.go).
var workloads = map[string]func(*bench) error{
	"shared-writes":  sharedWrites,
	"reads-releases": readsReleases,
	"scratch-ls":     scratchLS,
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"), or all of them in turn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the update streams, request order and release noise")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for WAL directories and span dumps")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	ok := true
	for _, name := range names {
		o.workload = name
		ok = report(o) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// report runs one workload and prints its context and result lines. It
// returns false when the run failed or its outputs were wrong.
func report(o options) bool {
	res, context, err := run(o)
	if context != nil {
		line, _ := json.Marshal(map[string]any{"context": context})
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles its result. The context map is
// returned even when the run fails, so a failed run still says what it ran.
func run(o options) (result, map[string]any, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return result{}, nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, nil, err
	}
	b := newBench(o)
	var err error
	if b.runDir, err = os.MkdirTemp(o.dir, o.workload+"-"); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(b.runDir)
	if err := fn(b); err != nil {
		return result{}, b.context, err
	}
	res := result{
		Correct:   b.rec.failed.Load() == 0,
		Attempted: b.rec.attempted.Load(),
		Failed:    b.rec.failed.Load(),
	}
	if res.Attempted == 0 {
		return result{}, b.context, fmt.Errorf("no operation was attempted")
	}
	if o.trace {
		res.Metrics = b.layers
		if err := b.tr.dump(b.spanFile()); err != nil {
			return result{}, b.context, err
		}
	} else {
		res.Metrics = b.endToEnd()
	}
	return res, b.context, nil
}

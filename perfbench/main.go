// Command perfbench is the repository benchmark. One run executes one
// workload as a closed-loop batch job over simulated-time arrivals and
// reports work per host second at the workload's fixed input size:
//
//	perfbench --workload abilene-drl --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the same operations untraced and then traced,
// and prints the per-layer ledger: every layer is timed from outside,
// at the calls into its public functions, and the layers tile the
// traced wall time exactly. Every operation's result is checked against
// the digest pinned for its input in digests.json. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
//
// Maintenance modes regenerate the pinned files from source:
//
//	perfbench -train-policy policy.json   # the Abilene 2x256 checkpoint
//	perfbench -pin digests.json           # every workload's digests
//
// The workloads, metrics and the layer each metric belongs to are
// described in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// maxProcs caps the Go scheduler: the benchmark's load comes from one
// process with at most two threads running Go code.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	pin := fs.String("pin", "", "regenerate the pinned digests into this file and exit")
	trainPolicy := fs.String("train-policy", "", "train the Abilene checkpoint into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if n := runtime.NumCPU(); n < maxProcs {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}

	switch {
	case *trainPolicy != "":
		return exitOn(stderr, writePolicy(*trainPolicy, stdout))
	case *pin != "":
		return exitOn(stderr, writeDigests(*pin, stdout))
	}

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rep := newReport(stdout)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d GOMAXPROCS %d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	if err := w(cfg, rep); err != nil {
		return exitOn(stderr, err)
	}
	if err := rep.complete(cfg.trace); err != nil {
		return exitOn(stderr, err)
	}
	return exitOn(stderr, rep.finish())
}

func exitOn(stderr io.Writer, err error) int {
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runConfig is one run's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// workload runs one set of inputs and reports its metrics.
type workload func(cfg runConfig, rep *report) error

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's outcome: operations attempted and failed, and
// the metrics. Human-readable lines go to out as the run proceeds; the
// JSON result is the last line.
type report struct {
	out       io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

// set records a metric and prints it.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.printf("  %-30s %14.6g %s\n", name, v, unit)
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.printf("FAILED %s: %v\n", what, err)
	}
}

// finish prints the JSON result line.
func (r *report) finish() error {
	if r.attempted == 0 {
		return errors.New("no operation attempted")
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(r.out, "%s\n", b)
	return err
}

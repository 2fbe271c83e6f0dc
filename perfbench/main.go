// Command perfbench is the repository benchmark. It runs one workload per
// invocation inside a single process and prints every metric by name, with
// its unit and sample count, followed by a one-line JSON result:
//
//	perfbench --workload search --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	search  closed-loop serial astar solves of a pinned random-DAG corpus
//	serve   an open-loop submitter and a poller against a durable daemon
//
// --trace 0 reports the end-to-end metrics, every time at the reference
// host speed (hostspeed.go); --trace 1 reports the per-layer metrics,
// measured from outside by timing calls into each layer's public functions
// and reading the daemon's job spans. Any incorrect output makes the run
// fail with a non-zero exit code. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every workload to a smoke-test size (the package tests).
	tiny bool
	// dir is the scratch directory for the daemon's job stores.
	dir string
	// out receives the human-readable lines printed before the result.
	out io.Writer
}

// setupReps is how many times a run sets its workload up when one set-up
// lasts about a millisecond (a search corpus) or a few (a serving plan and
// a daemon). The first set-up warms the process up and is not timed;
// setup_s is the median of the rest, the shorter set-up taking more
// repetitions to keep its median steady.
func (o options) setupReps(short bool) int {
	switch {
	case o.tiny:
		return 2
	case short:
		return 40
	}
	return 20
}

// Tiny-mode sizes: a few corpus instances under a small cap.
const (
	tinyCorpus = 3
	tinyCap    = 12000
)

var workloads = map[string]func(options, *report) error{
	"search": runSearch,
	"serve":  runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload, and prints the result. It
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "search", "search | serve")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&seconds, "seconds", 10, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes")
	fs.StringVar(&o.dir, "dir", ".bench_build/perfbench", "scratch directory for job stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace != 0
	o.out = stdout
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	// The reference host has two cores; never search or serve on more.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	host, _ := json.Marshal(map[string]any{"host": hostBlock(o.workload, o.seed, o.trace)})
	fmt.Fprintf(stdout, "%s\n", host)

	r := &report{}
	if err := fn(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		fillLayers(r)
	}
	r.write(stdout)
	if r.failed > 0 {
		return 1
	}
	return 0
}

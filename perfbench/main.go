package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead")
	calib := fs.Bool("calibrate", false, "print recall against NProbe for the workload's corpus and exit")
	work := fs.String("dir", filepath.Join(".bench_build", "data"), "scratch directory for stores")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "MICRONN_TEST_") {
			fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: test hooks change what is measured\n", strings.SplitN(kv, "=", 2)[0])
			return 2
		}
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(dir)
	if *calib {
		if err := Calibrate(os.Stdout, w, *seed, dir, 200); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var rp *Report
	var err error
	if *trace == 1 {
		spans := filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, *seed))
		rp, err = RunTraced(w, *seed, *seconds, dir, spans)
	} else {
		rp, err = RunEndToEnd(w, *seed, *seconds, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rp.print(*trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// Command qosbench is the repository's benchmark. One run executes one
// workload, checks the program's outputs, and prints every metric by
// name with its unit; the last line of standard output is the result as
// one JSON object. Run it through run.sh from the repository root, which
// builds this command and cmd/qosserved first:
//
//	bash qosbench/run.sh --workload served_volatile --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md gives the reasons and the metric definitions):
//
//	paper_direct     sim.Run in process: the paper's planner at figure-11's heaviest rate
//	served_volatile  the real qosserved daemon over HTTP, no WAL
//	served_durable   the same with the WAL fsynced on disk, plus two crash restarts
//
// --trace 1 makes the traced run: it prints the per-layer metrics
// instead of the end-to-end ones and writes its spans to
// <out>/spans-<workload>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	daemon   string
	out      string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options) (*outcome, error){
	"paper_direct": runDirect,
	"served_volatile": func(o *options) (*outcome, error) {
		return runServed(o, servedPlan{openRate: 100, openShare: 0.3, closedPerSecond: 800})
	},
	"served_durable": func(o *options) (*outcome, error) {
		return runServed(o, servedPlan{durable: true, openRate: 50, openShare: 0.3, closedPerSecond: 120})
	},
}

func printHost(h hostInfo) {
	data, _ := json.Marshal(h) // plain fields always encode
	fmt.Printf("host: %s\n", data)
}

func run() error {
	o := &options{}
	var traced int
	flag.StringVar(&o.workload, "workload", "", "paper_direct, served_volatile or served_durable")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "run length; scales the operation counts")
	flag.IntVar(&traced, "trace", 0, "1: traced run (per-layer metrics and spans)")
	flag.StringVar(&o.daemon, "daemon", "", "path of the qosserved binary (served workloads)")
	flag.StringVar(&o.out, "out", ".bench_build/run", "directory for WAL, logs and spans")
	flag.Parse()
	o.traced = traced == 1
	runner, ok := workloads[o.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", o.workload)
	case o.seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case traced != 0 && traced != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case o.workload != "paper_direct" && o.daemon == "":
		return fmt.Errorf("--daemon is required for %s", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	res, err := runner(o)
	if err != nil {
		return err
	}
	for _, e := range res.checkErrs {
		fmt.Fprintf(os.Stderr, "qosbench: check failed: %v\n", e)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	rep, err := res.build(defs)
	if err != nil {
		return err
	}
	for _, d := range defs {
		fmt.Printf("%-36s %16.6f %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "qosbench: %v\n", err)
		os.Exit(1)
	}
}

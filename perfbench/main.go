// Command perfbench is the repository's benchmark. It drives the consensus
// library through its public entry points on one workload per run, checks
// every decision, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced replay) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {"instances_per_s": {"value": 29.8, "unit": "1/s"}, ...}}
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: seq-n8 | commute-n16 | anon-n8 | native-n4")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of the timed run; 1: per-layer metrics of a traced replay")
		probe   = flag.Bool("setup-probe", false, "set up the workload and exit (the timed run starts itself with it to measure set-up)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *probe {
		if err := warmup(w); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	stampEnv()
	fmt.Printf("workload %s seed=%d seconds=%d trace=%d workers=%d\n", w.name, *seed, *seconds, *trace, w.parallel())
	var rep report
	if *trace == 1 {
		rep, err = traced(w, *seed, *seconds)
	} else {
		rep, err = timed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, m := range rep.order {
		fmt.Printf("%-32s %14.6g %s\n", m, rep.Metrics[m].Value, rep.Metrics[m].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// stampEnv prints the environment every figure depends on.
func stampEnv() {
	fmt.Printf("env go=%s gomaxprocs=%d numcpu=%d os=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	if runtime.NumCPU() == 1 {
		fmt.Fprintln(os.Stderr, "perfbench: warning: 1 CPU; native runs are near-serial and simulated ns/step differs from multi-CPU hosts")
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line. order lists the metrics as they are
// printed for people.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (r *report) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

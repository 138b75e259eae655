// Command perfbench runs one workload of the distributed system over its
// real network path and prints its metrics. Run it from the root of a
// checkout through run.sh:
//
//	bash perfbench/run.sh --workload dsearch-net --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a traced run. Everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames()))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to keep starting problems")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	printHost()
	ins, err := w.instances(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: generating %s inputs: %v\n", *workload, err)
		os.Exit(1)
	}
	var rep *report
	if *trace == 0 {
		rep = runPlain(ins, time.Duration(*seconds)*time.Second)
	} else {
		rep, err = runTraced(ins, *seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tally counts a run's problems the way the report needs them.
type tally struct {
	attempted, failed, wrong int
	ok                       []*outcome
}

func (t *tally) add(o *outcome) {
	t.attempted++
	switch {
	case o.failed != nil:
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: problem %d failed: %v\n", t.attempted, o.failed)
	case o.wrong != nil:
		t.wrong++
		fmt.Fprintf(os.Stderr, "perfbench: problem %d wrong: %v\n", t.attempted, o.wrong)
	default:
		t.ok = append(t.ok, o)
	}
}

func (t *tally) report() *report {
	return &report{
		Correct:   t.wrong == 0 && len(t.ok) > 0,
		Attempted: t.attempted,
		Failed:    t.failed + t.wrong,
		Metrics:   map[string]metric{},
	}
}

// runPlain is the end-to-end run: a closed loop, one problem at a time,
// tracing off, cycling through the inputs until the time is up.
func runPlain(ins []*instance, d time.Duration) *report {
	var t tally
	var probes []float64
	for deadline := time.Now().Add(d); t.attempted == 0 || time.Now().Before(deadline); {
		probes = append(probes, ms(hostProbe()))
		t.add(runProblem(ins[t.attempted%len(ins)], false, defaultDetector))
	}
	rep := t.report()
	var makespan, cpu, setup []float64
	for _, o := range t.ok {
		makespan = append(makespan, o.makespan.Seconds())
		cpu = append(cpu, o.cpu.Seconds())
		setup = append(setup, o.setup.Seconds())
	}
	rep.Metrics["makespan_s"] = metric{median(makespan), "s"}
	rep.Metrics["cpu_s"] = metric{median(cpu), "s"}
	rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	rep.Metrics["setup_s"] = metric{median(setup), "s"}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d problems (%d failed, %d wrong); makespan median %.4fs over %d samples%s; host probe median %.3fms\n",
		ins[0].workload, t.attempted, t.failed, t.wrong, median(makespan), len(makespan), tail(makespan), median(probes))
	return rep
}

// tail names the highest percentile with ten samples beyond it, when the
// run has at least 20 samples.
func tail(v []float64) string {
	if len(v) < 20 {
		return ""
	}
	p := 1 - 10/float64(len(v))
	return fmt.Sprintf(", p%.0f %.4fs", 100*p, quantile(v, p))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

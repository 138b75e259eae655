package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// runTraced alternates untraced and traced problems until the time is up,
// then replays the kernels and the journal single-threaded. Per-layer
// metrics are medians over the traced problems; trace.overhead_frac
// compares the two halves of the same run.
func runTraced(ins []*instance, seed int64, d time.Duration) (*report, error) {
	var plain, traced tally
	var probes []float64
	for deadline := time.Now().Add(d); traced.attempted == 0 || time.Now().Before(deadline); {
		in := ins[traced.attempted%len(ins)]
		probes = append(probes, ms(hostProbe()))
		plain.add(runProblem(in, false, defaultDetector))
		o := runProblem(in, true, defaultDetector)
		if o.failed == nil && o.wrong == nil {
			o.failed = traceInvalid(o)
		}
		traced.add(o)
	}
	rep := traced.report()
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed + plain.wrong
	rep.Correct = rep.Correct && plain.wrong == 0
	if len(traced.ok) == 0 || len(plain.ok) == 0 {
		return rep, nil
	}
	app := ins[0].app
	m := layerMetrics(traced.ok)
	var pm, tm []float64
	for _, o := range plain.ok {
		pm = append(pm, o.makespan.Seconds())
	}
	for _, o := range traced.ok {
		tm = append(tm, o.makespan.Seconds())
	}
	m["trace.overhead_frac"] = metric{median(tm)/median(pm) - 1, "fraction"}
	m["host.probe_ms"] = metric{median(probes), "ms"}

	// The other application's layers, from one small traced companion.
	for capp, gen := range companions {
		if capp == app {
			continue
		}
		cin, err := gen(seed)
		if err != nil {
			return nil, fmt.Errorf("companion %s: %w", capp, err)
		}
		o := runProblem(cin, true, defaultDetector)
		rep.Attempted++
		if o.failed == nil && o.wrong == nil {
			o.failed = traceInvalid(o)
		}
		if o.failed != nil || o.wrong != nil {
			rep.Failed++
			rep.Correct = rep.Correct && o.wrong == nil
			fmt.Fprintf(os.Stderr, "perfbench: companion %s problem: failed %v, wrong %v\n", capp, o.failed, o.wrong)
			continue
		}
		cm := layerMetrics([]*outcome{o})
		if err := kernelMetrics(cin, nil, cm); err != nil {
			return nil, err
		}
		for k, v := range cm {
			if appMetric(k, capp) {
				m[k] = v
			}
		}
	}
	if err := kernelMetrics(traced.ok[0].in, traced.ok[0], m); err != nil {
		return nil, err
	}
	rep.Metrics = m
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return rep, nil
}

// appMetric reports whether a metric belongs to the application's layers:
// its DataManager and Algorithm, and the kernel it runs.
func appMetric(name, app string) bool {
	kernel := map[string]string{"dsearch": "align.", "dprml": "likelihood."}[app]
	return len(name) > len(app) && name[:len(app)+1] == app+"." ||
		len(name) > len(kernel) && name[:len(kernel)] == kernel
}

// traceInvalid checks a traced problem's trace: no Watch event dropped,
// no fold without a dispatch, donors busy no longer than they existed,
// and the traced layers covering the problem's wall time within 10%.
func traceInvalid(o *outcome) error {
	switch process := o.tr.sum("process"); {
	case o.ue.dropped > 0:
		return fmt.Errorf("trace: %d Watch events dropped", o.ue.dropped)
	case o.ue.orphans > 0:
		return fmt.Errorf("trace: %d units folded with no dispatch event", o.ue.orphans)
	case process > donors*o.makespan:
		return fmt.Errorf("trace: donors computed %s in a %s makespan with %d donors", process, o.makespan, donors)
	}
	self := o.tr.selfTimes(o.t0, o.end)
	if frac := float64(self[layerNone]) / float64(o.end.Sub(o.t0)); frac > 0.10 {
		return fmt.Errorf("trace: %.1f%% of the problem's wall time is in no traced layer", 100*frac)
	}
	return nil
}

// layerMetrics computes the per-layer metrics of traced problems, each the
// median over the problems.
func layerMetrics(outs []*outcome) map[string]metric {
	vals := map[string][]float64{}
	units := map[string]string{}
	put := func(name, unit string, v float64) {
		vals[name] = append(vals[name], v)
		units[name] = unit
	}
	for _, o := range outs {
		in, tr := o.in, o.tr
		app := in.app
		st := o.stats
		// On a restarted problem the DataManager the wrapper saw served
		// only the folds before the restart; scale its sums to the problem.
		dmScale := 1.0
		if n := tr.count("consume"); in.durable && n > 0 {
			dmScale = float64(st.Completed) / float64(n)
		}
		process := tr.sum("process")
		put(app+".process_s", "s", process.Seconds())
		put(app+".init_ms", "ms", ms(tr.sum("init")))
		put(app+".next_unit_ms", "ms", dmScale*ms(tr.sum("next_unit")))
		put(app+".consume_ms", "ms", dmScale*ms(tr.sum("consume")))
		put(app+".local_s", "s", in.localS)
		put("seq.parse_ms", "ms", ms(o.parse))

		costs := make([]float64, len(tr.costs))
		for i, c := range tr.costs {
			costs[i] = float64(c)
		}
		cut := float64(len(tr.costs))
		if in.durable {
			cut = float64(st.Completed) // fixed:1 cuts one unit per sequence
		}
		put("sched.units", "count", cut)
		put("sched.unit_cost_p50", "cost", median(costs))

		turn := make([]float64, len(o.ue.turnaround))
		var turnSum time.Duration
		for i, d := range o.ue.turnaround {
			turn[i] = ms(d)
			turnSum += d
		}
		put("dist.turnaround_ms.p50", "ms", quantile(turn, 0.5))
		put("dist.turnaround_ms.p99", "ms", quantile(turn, 0.99))
		put("dist.overhead_s", "s", (turnSum - process).Seconds())
		busy := donors * o.makespan.Seconds()
		put("dist.donor_idle_frac", "fraction", 1-process.Seconds()/busy)
		put("dist.efficiency", "fraction", in.localS/busy)
		put("dist.dispatched", "count", float64(st.Dispatched))
		put("dist.completed", "count", float64(st.Completed))
		put("dist.reissued", "count", float64(st.Reissued))
		put("dist.useful_frac", "fraction", float64(st.Completed)/float64(st.Dispatched))
		put("dist.blob_fetches", "count", float64(o.blobFetches))
		put("dist.events_dropped", "count", float64(o.ue.dropped))
		put("wire.ctrl_bytes_per_unit", "B/unit", float64(tr.ctrlBytes.Load())/float64(st.Completed))
		put("wire.ctrl_calls_per_unit", "calls/unit", float64(tr.ctrlCalls.Load())/float64(st.Completed))
		put("wire.bulk_bytes", "B", float64(o.bulk.BytesServed))
		put("wire.bulk_fetches", "count", float64(o.bulk.Fetches))

		wall := o.end.Sub(o.t0)
		self := tr.selfTimes(o.t0, o.end)
		for l, d := range self {
			put("self."+layerNames[l]+"_s", "s", d.Seconds())
		}
		put("trace.accounted_frac", "fraction", 1-float64(self[layerNone])/float64(wall))
		if in.durable {
			put("journal.bytes_per_fold", "B", float64(o.dataBytes)/float64(st.Completed))
			put("journal.reopen_ms", "ms", ms(o.reopen))
		}
	}
	m := map[string]metric{}
	for k, v := range vals {
		m[k] = metric{median(v), units[k]}
	}
	return m
}

// kernelMetrics adds the single-threaded replays of the kernels and the
// journal: align.* on DSEARCH inputs, likelihood.* on DPRml inputs, and
// journal.* from the Fold records of o (nil: no journal replay).
func kernelMetrics(in *instance, o *outcome, m map[string]metric) error {
	if in.app == "dsearch" {
		cells, d, err := alignReplay(in)
		if err != nil {
			return err
		}
		m["align.cells"] = metric{cells, "count"}
		m["align.score_s"] = metric{d.Seconds(), "s"}
		m["align.gcups"] = metric{cells / d.Seconds() / 1e9, "GCUPS"}
	} else {
		ll, opt, err := likelihoodReplay(in)
		if err != nil {
			return err
		}
		m["likelihood.loglik_ms"] = metric{ms(ll), "ms"}
		m["likelihood.optimize_branch_ms"] = metric{ms(opt), "ms"}
	}
	if o == nil {
		return nil
	}
	appendMean, perFold, reopen, err := journalReplay(o.tr.folds)
	if err != nil {
		return err
	}
	m["journal.append_us"] = metric{float64(appendMean) / float64(time.Microsecond), "us"}
	if !in.durable {
		// Without a data directory the replay's own store stands in.
		m["journal.bytes_per_fold"] = metric{perFold, "B"}
		m["journal.reopen_ms"] = metric{ms(reopen), "ms"}
	}
	return nil
}

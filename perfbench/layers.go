package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/align"
	"repro/internal/journal"
	"repro/internal/likelihood"
	"repro/internal/phylo"
	"repro/internal/seq"
)

// companions are small problems of the other application, run once per
// traced run so that every workload reports every app's layer metrics
// (dprml.* and likelihood.* on the DSEARCH workloads, dsearch.* and
// align.* on dprml-net) from a real measurement.
var companions = map[string]func(seed int64) (*instance, error){
	"dsearch": func(seed int64) (*instance, error) {
		return searchInstance("companion", seed, 150, 4, 4,
			seq.LengthModel{Mean: 300, Min: 300, Max: 300}, "adaptive:5s", false)
	},
	"dprml": func(seed int64) (*instance, error) {
		return treeInstance("companion", seed, 8, 200, "adaptive:5s")
	},
}

// alignReplay runs one single-threaded Smith-Waterman Score pass over
// every (query, database) pair, the donors' kernel work without the rest.
func alignReplay(in *instance) (cells float64, elapsed time.Duration, err error) {
	m, err := seq.MatrixByName(searchConfig().Matrix)
	if err != nil {
		return 0, 0, err
	}
	cfg := searchConfig()
	al, err := align.New(align.AlgSmithWaterman, align.Params{Matrix: m, Gap: align.Gap{Open: cfg.GapOpen, Extend: cfg.GapExtend}}, 0)
	if err != nil {
		return 0, 0, err
	}
	var qRes, dbRes float64
	for _, q := range in.querySeqs {
		qRes += float64(len(q))
	}
	for _, s := range in.dbSeqs {
		dbRes += float64(len(s))
	}
	sink := 0
	start := time.Now()
	for _, q := range in.querySeqs {
		for _, s := range in.dbSeqs {
			sink += al.Score(q, s)
		}
	}
	elapsed = time.Since(start)
	if sink < 0 {
		return 0, 0, fmt.Errorf("align: negative local score total %d", sink)
	}
	return qRes * dbRes, elapsed, nil
}

// likelihoodReplay times LogLikelihood and OptimizeBranch on the oracle's
// final tree: the median of repeated full evaluations, and the median over
// one Brent optimisation of every branch.
func likelihoodReplay(in *instance) (loglik, optimize time.Duration, err error) {
	tree, err := phylo.ParseNewick(in.tree.Newick)
	if err != nil {
		return 0, 0, err
	}
	opts := treeOptions()
	model, err := likelihood.ModelByName(opts.Model)
	if err != nil {
		return 0, 0, err
	}
	ev, err := likelihood.NewEvaluator(model, likelihood.UniformRates(), likelihood.Compress(in.alignment))
	if err != nil {
		return 0, 0, err
	}
	var ll []time.Duration
	for i := 0; i < 21; i++ {
		start := time.Now()
		if _, err := ev.LogLikelihood(tree); err != nil {
			return 0, 0, err
		}
		ll = append(ll, time.Since(start))
	}
	var opt []time.Duration
	var nodes []*phylo.Node
	tree.Walk(func(n *phylo.Node) {
		if n.Parent != nil {
			nodes = append(nodes, n)
		}
	})
	for _, n := range nodes {
		start := time.Now()
		if _, err := ev.OptimizeBranch(tree, n, 1e-4); err != nil {
			return 0, 0, err
		}
		opt = append(opt, time.Since(start))
	}
	return medianDur(ll), medianDur(opt), nil
}

// journalReplay appends the workload's Fold records to a fresh journal
// store, one at a time from one goroutine, then closes and reopens it.
func journalReplay(folds []journal.Fold) (appendMean time.Duration, bytesPerFold float64, reopen time.Duration, err error) {
	if len(folds) == 0 {
		return 0, 0, 0, fmt.Errorf("journal replay: no folds recorded")
	}
	dir, err := os.MkdirTemp("", "perfbench-replay-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for i := range folds {
		if err := st.Append(&folds[i]); err != nil {
			_ = st.Close()
			return 0, 0, 0, err
		}
	}
	appendMean = time.Since(start) / time.Duration(len(folds))
	if err := st.Close(); err != nil {
		return 0, 0, 0, err
	}
	bytesPerFold = float64(dirBytes(dir)) / float64(len(folds))
	start = time.Now()
	st, rec, err := journal.Open(dir, journal.Options{})
	reopen = time.Since(start)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := st.Close(); err != nil {
		return 0, 0, 0, err
	}
	if len(rec.Tail) != len(folds) {
		return 0, 0, 0, fmt.Errorf("journal replay: reopened %d records, appended %d", len(rec.Tail), len(folds))
	}
	return appendMean, bytesPerFold, reopen, nil
}

// hostProbe is a fixed Gotoh alignment of two fixed random sequences,
// owned by the benchmark. Like the kernels it is throughput-bound, so a
// busy neighbour on the same core slows it as it slows them, and its time
// shows host drift that no change to the program can explain.
func hostProbe() time.Duration {
	start := time.Now()
	probeSink = gotohLocal(probeA, probeB, probeMatrix, 10, 1)
	return time.Since(start)
}

var (
	probeA, probeB = probeSeq(1), probeSeq(2)
	probeMatrix    = mustMatrix("BLOSUM62")
	probeSink      int
)

func probeSeq(seed int64) []byte {
	return seq.NewGenerator(seq.Protein, seed).Random("probe", 600).Residues
}

func mustMatrix(name string) *seq.Matrix {
	m, err := seq.MatrixByName(name)
	if err != nil {
		panic(err) // a built-in matrix name: only a bug can fail here
	}
	return m
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

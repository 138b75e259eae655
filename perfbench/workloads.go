package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/dprml"
	"repro/internal/dsearch"
	"repro/internal/likelihood"
	"repro/internal/sched"
	"repro/internal/seq"
)

// instance is one workload made concrete for one seed: the generated
// inputs as the program receives them (FASTA text), the server settings,
// and the oracle every result is checked against.
type instance struct {
	workload string
	app      string // "dsearch" or "dprml": the prefix of the app's layer metrics
	policy   sched.Policy
	durable  bool // journal on, and one coordinator restart per problem

	// Generated inputs. dsearch reads db and queries, dprml reads aln.
	db, queries, aln []byte

	// Oracle, computed in-process from the same inputs on every run.
	hits              *dsearch.HitList
	planted           map[string][]string
	seqs              map[string][]byte // every query and database residue string, by ID
	dbSeqs, querySeqs [][]byte
	alignment         *seq.Alignment
	tree              *dprml.TreeResult
	// localS is the serial reference's wall time: SearchLocal or
	// BuildTreeLocal on the same inputs.
	localS float64
	// units is the number of units the problem is cut into when that is
	// fixed by the policy (fixed:1 on tiny-durable); 0 otherwise.
	units int
}

const topK = 25

// workload generates a workload's inputs. A run cycles through inputs
// distinct inputs, so its median spans several draws and differs less from
// one seed to the next.
type workload struct {
	inputs int
	gen    func(seed int64) (*instance, error)
}

// instances generates the run's inputs from its seed.
func (w workload) instances(seed int64) ([]*instance, error) {
	var ins []*instance
	for i := 0; i < w.inputs; i++ {
		in, err := w.gen(seed*1009 + int64(i))
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// workloads maps each name to its input generator. Sizes keep one problem
// near a second on a 2-CPU host, so one run measures many problems, and
// keep the work nearly the same on every seed: the seed changes residues,
// trees and branch lengths, not how much there is to compute.
var workloads = map[string]workload{
	// DSEARCH protein search, Smith-Waterman/BLOSUM62: donors spend >90%
	// of their time in the align kernel. Fixed sequence lengths make every
	// input the same number of cells, so one input suffices. The default
	// 5 s adaptive target hands one donor the whole database after the
	// bootstrap units, so the search runs mostly on one donor.
	"dsearch-net": {1, func(seed int64) (*instance, error) {
		return searchInstance("dsearch-net", seed, 150, 8, 4,
			seq.LengthModel{Mean: 300, Min: 300, Max: 300}, "adaptive:5s", false)
	}},
	// DPRml stepwise addition: likelihood-bound, one stage barrier per
	// added taxon. Optimiser iterations vary with the simulated data, so a
	// run cycles through four alignments.
	"dprml-net": {4, func(seed int64) (*instance, error) {
		return treeInstance("dprml-net", seed, 14, 250, "adaptive:5s")
	}},
	// Thousands of one-sequence units on a journaled coordinator restarted
	// once per problem: per-unit coordinator, codec, fold and journal cost.
	"tiny-durable": {4, func(seed int64) (*instance, error) {
		return searchInstance("tiny-durable", seed, 6000, 1, 4,
			seq.LengthModel{Mean: 65, StdDev: 15, Min: 40, Max: 90}, "fixed:1", true)
	}},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// searchInstance generates a protein database with planted homolog
// families (one query per family) and runs the serial oracle on it.
func searchInstance(name string, seed int64, background, families, familySize int, lm seq.LengthModel, policy string, durable bool) (*instance, error) {
	pol, err := sched.ByName(policy)
	if err != nil {
		return nil, err
	}
	w := seq.NewGenerator(seq.Protein, seed).NewSearchWorkload(background, families, familySize, lm)
	in := &instance{workload: name, app: "dsearch", policy: pol, durable: durable, planted: w.Planted,
		seqs: make(map[string][]byte)}
	if in.db, err = fastaText(w.DB); err != nil {
		return nil, err
	}
	if in.queries, err = fastaText(w.Queries); err != nil {
		return nil, err
	}
	for _, s := range w.DB.Seqs {
		in.seqs[s.ID] = s.Residues
		in.dbSeqs = append(in.dbSeqs, s.Residues)
	}
	for _, s := range w.Queries.Seqs {
		in.seqs[s.ID] = s.Residues
		in.querySeqs = append(in.querySeqs, s.Residues)
	}
	if policy == "fixed:1" {
		in.units = w.DB.Len()
	}
	start := time.Now()
	in.hits, err = dsearch.SearchLocal(w.DB, w.Queries, searchConfig())
	in.localS = time.Since(start).Seconds()
	return in, err
}

// treeInstance simulates an alignment of sites distinct columns under
// HKY85 (kappa=2) on a random tree and runs the serial oracle on it.
func treeInstance(name string, seed int64, taxa, sites int, policy string) (*instance, error) {
	pol, err := sched.ByName(policy)
	if err != nil {
		return nil, err
	}
	names := make([]string, taxa)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	truth, err := likelihood.RandomTree(names, 0.02, 0.2, seed)
	if err != nil {
		return nil, err
	}
	model, err := likelihood.ModelByName(treeOptions().Model)
	if err != nil {
		return nil, err
	}
	// Simulate more sites than needed and keep the first distinct columns:
	// likelihood cost follows the number of site patterns, which would
	// otherwise vary with the random tree's length.
	sim, err := likelihood.Simulate(truth, model, likelihood.UniformRates(), 8*sites, seed)
	if err != nil {
		return nil, err
	}
	aln, err := distinctColumns(sim, sites)
	if err != nil {
		return nil, err
	}
	in := &instance{workload: name, app: "dprml", policy: pol, alignment: aln}
	if in.aln, err = fastaText(&seq.Database{Seqs: aln.Rows}); err != nil {
		return nil, err
	}
	start := time.Now()
	in.tree, err = dprml.BuildTreeLocal(aln, treeOptions())
	in.localS = time.Since(start).Seconds()
	return in, err
}

// distinctColumns keeps the first n distinct columns of a.
func distinctColumns(a *seq.Alignment, n int) (*seq.Alignment, error) {
	rows := make([][]byte, len(a.Rows))
	seen := make(map[string]bool)
	for i := 0; i < a.NSites() && len(seen) < n; i++ {
		col := a.Column(i)
		if seen[col] {
			continue
		}
		seen[col] = true
		for r := range rows {
			rows[r] = append(rows[r], col[r])
		}
	}
	if len(seen) < n {
		return nil, fmt.Errorf("simulated alignment has %d distinct columns, want %d", len(seen), n)
	}
	out := make([]*seq.Sequence, len(a.Rows))
	for r, row := range a.Rows {
		out[r] = &seq.Sequence{ID: row.ID, Residues: rows[r]}
	}
	return seq.NewAlignment(out)
}

// searchConfig is cmd/server's dsearch default.
func searchConfig() dsearch.Config { return dsearch.DefaultConfig() }

// treeOptions is cmd/server's dprml default: HKY85 kappa=2, one rate.
func treeOptions() dprml.Options {
	return dprml.Options{Model: "HKY85:kappa=2", GammaCategories: 1, GammaAlpha: 0.5}
}

func fastaText(db *seq.Database) ([]byte, error) {
	var b bytes.Buffer
	err := seq.WriteFASTA(&b, db, 70)
	return b.Bytes(), err
}

// build parses the generated inputs and assembles the problem, as
// cmd/server does; parse is the FASTA read alone.
func (in *instance) build(id string) (p *dist.Problem, parse time.Duration, err error) {
	start := time.Now()
	switch in.app {
	case "dsearch":
		var db, queries *seq.Database
		if db, err = seq.ReadFASTA(bytes.NewReader(in.db)); err != nil {
			return nil, 0, err
		}
		if queries, err = seq.ReadFASTA(bytes.NewReader(in.queries)); err != nil {
			return nil, 0, err
		}
		parse = time.Since(start)
		p, err = dsearch.NewProblem(id, db, queries, searchConfig())
	default:
		var aln *seq.Alignment
		if aln, err = seq.ReadAlignmentFASTA(bytes.NewReader(in.aln)); err != nil {
			return nil, 0, err
		}
		parse = time.Since(start)
		p, err = dprml.NewProblem(id, aln, treeOptions())
	}
	return p, parse, err
}

// decode unpacks a final result as cmd/server does.
func (in *instance) decode(out []byte) (any, error) {
	if in.app == "dsearch" {
		return dsearch.DecodeResult(out, topK)
	}
	return dprml.DecodeResult(out)
}

// check compares a decoded final result with the oracle.
func (in *instance) check(got any) error {
	if hits, ok := got.(*dsearch.HitList); ok {
		return checkHits(hits.All(), in.hits.All(), in.planted, in.seqs)
	}
	return checkTree(got.(*dprml.TreeResult), in.tree)
}

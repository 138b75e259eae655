package main

import (
	"fmt"
	"math"

	"repro/internal/dprml"
	"repro/internal/dsearch"
	"repro/internal/phylo"
	"repro/internal/seq"
)

// checkHits accepts a distributed search result only if it is exactly the
// serial SearchLocal hit list, every planted homolog is among its query's
// hits, and every reported score equals the benchmark's own Gotoh score.
// The last check keeps the oracle independent of the production kernel:
// SearchLocal runs the same kernel as the donors, so a kernel change that
// alters scores would pass the first check alone.
func checkHits(got, want []dsearch.Hit, planted map[string][]string, seqs map[string][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("dsearch: %d hits, SearchLocal has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("dsearch: hit %d is %+v, SearchLocal has %+v", i, got[i], want[i])
		}
	}
	found := make(map[[2]string]bool, len(got))
	for _, h := range got {
		found[[2]string{h.Query, h.Subject}] = true
	}
	for q, members := range planted {
		for _, m := range members {
			if !found[[2]string{q, m}] {
				return fmt.Errorf("dsearch: planted homolog %s of %s not recovered", m, q)
			}
		}
	}
	blosum, err := seq.MatrixByName(searchConfig().Matrix)
	if err != nil {
		return err
	}
	cfg := searchConfig()
	for _, h := range got {
		q, s := seqs[h.Query], seqs[h.Subject]
		if q == nil || s == nil {
			return fmt.Errorf("dsearch: hit %s/%s names a sequence not in the inputs", h.Query, h.Subject)
		}
		if want := gotohLocal(q, s, blosum, cfg.GapOpen, cfg.GapExtend); h.Score != want {
			return fmt.Errorf("dsearch: hit %s/%s scores %d, Gotoh local alignment gives %d", h.Query, h.Subject, h.Score, want)
		}
	}
	return nil
}

// gotohLocal is a plain Gotoh (1982) affine-gap Smith-Waterman score: H is
// the best local alignment ending at (i, j), E and F the best ending in a
// gap in a or b. A gap of length L costs open + L*extend.
func gotohLocal(a, b []byte, m *seq.Matrix, open, extend int) int {
	const minusInf = math.MinInt32
	n := len(b)
	hPrev, hCur := make([]int, n+1), make([]int, n+1)
	fPrev, fCur := make([]int, n+1), make([]int, n+1)
	for j := range fPrev {
		fPrev[j] = minusInf
	}
	best := 0
	for i := 1; i <= len(a); i++ {
		hCur[0], fCur[0] = 0, minusInf
		e := minusInf
		for j := 1; j <= n; j++ {
			e = max(e-extend, hCur[j-1]-open-extend)
			fCur[j] = max(fPrev[j]-extend, hPrev[j]-open-extend)
			h := max(0, hPrev[j-1]+m.Score(a[i-1], b[j-1]), e, fCur[j])
			hCur[j] = h
			best = max(best, h)
		}
		hPrev, hCur = hCur, hPrev
		fPrev, fCur = fCur, fPrev
	}
	return best
}

// checkTree accepts a distributed tree only if it has the serial
// BuildTreeLocal topology (Robinson-Foulds distance 0) and its
// log-likelihood is within 1e-6 relative of the serial one.
func checkTree(got, want *dprml.TreeResult) error {
	gt, err := phylo.ParseNewick(got.Newick)
	if err != nil {
		return fmt.Errorf("dprml: result tree: %w", err)
	}
	wt, err := phylo.ParseNewick(want.Newick)
	if err != nil {
		return fmt.Errorf("dprml: oracle tree: %w", err)
	}
	rf, err := phylo.RobinsonFoulds(gt, wt)
	if err != nil {
		return fmt.Errorf("dprml: comparing trees: %w", err)
	}
	if rf != 0 {
		return fmt.Errorf("dprml: Robinson-Foulds distance %d to BuildTreeLocal", rf)
	}
	if d := math.Abs(got.LogL - want.LogL); !(d <= 1e-6*math.Abs(want.LogL)) {
		return fmt.Errorf("dprml: logL %.10g, BuildTreeLocal has %.10g", got.LogL, want.LogL)
	}
	return nil
}

package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dprml"
	"repro/internal/dsearch"
	"repro/internal/phylo"
	"repro/internal/seq"
)

func smallSearch(t *testing.T, seed int64) *instance {
	t.Helper()
	in, err := searchInstance("test", seed, 60, 3, 4, seq.LengthModel{Mean: 120, StdDev: 30, Min: 60, Max: 200}, "adaptive:5s", false)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func smallTree(t *testing.T, seed int64) *instance {
	t.Helper()
	in, err := treeInstance("test", seed, 7, 150, "adaptive:5s")
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCheckerAcceptsOracle(t *testing.T) {
	s := smallSearch(t, 3)
	if err := s.check(s.hits); err != nil {
		t.Fatalf("oracle hits rejected: %v", err)
	}
	tr := smallTree(t, 3)
	if err := tr.check(tr.tree); err != nil {
		t.Fatalf("oracle tree rejected: %v", err)
	}
}

func TestCheckerRejectsChangedScore(t *testing.T) {
	in := smallSearch(t, 3)
	want := in.hits.All()
	got := append([]dsearch.Hit(nil), want...)
	got[0].Score++
	if err := checkHits(got, want, in.planted, in.seqs); err == nil {
		t.Fatal("a changed score passed the check")
	}
	// A kernel change moves SearchLocal too: the Gotoh re-score must still
	// catch it.
	if err := checkHits(got, got, in.planted, in.seqs); err == nil || !strings.Contains(err.Error(), "Gotoh") {
		t.Fatalf("a changed score in both result and SearchLocal gave %v, want a Gotoh mismatch", err)
	}
}

func TestCheckerRejectsDroppedHit(t *testing.T) {
	in := smallSearch(t, 3)
	want := in.hits.All()
	var q, member string
	for q = range in.planted {
		member = in.planted[q][0]
		break
	}
	var got []dsearch.Hit
	for _, h := range want {
		if h.Query != q || h.Subject != member {
			got = append(got, h)
		}
	}
	if err := checkHits(got, want, in.planted, in.seqs); err == nil {
		t.Fatal("a dropped hit passed the check")
	}
	if err := checkHits(got, got, in.planted, in.seqs); err == nil || !strings.Contains(err.Error(), "planted") {
		t.Fatalf("a dropped planted homolog in both result and SearchLocal gave %v, want a planted-homolog miss", err)
	}
}

func TestCheckerRejectsSwappedLeaves(t *testing.T) {
	in := smallTree(t, 3)
	orig, err := phylo.ParseNewick(in.tree.Newick)
	if err != nil {
		t.Fatal(err)
	}
	names := orig.LeafNames()
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			swapped := swapLeaves(in.tree.Newick, names[i], names[j])
			st, err := phylo.ParseNewick(swapped)
			if err != nil {
				t.Fatal(err)
			}
			if rf, _ := phylo.RobinsonFoulds(st, orig); rf == 0 {
				continue // sister leaves: the same tree
			}
			got := &dprml.TreeResult{Newick: swapped, LogL: in.tree.LogL}
			if err := checkTree(got, in.tree); err == nil {
				t.Fatalf("swapping %s and %s passed the check", names[i], names[j])
			}
			return
		}
	}
	t.Fatal("no leaf swap changes the topology")
}

// swapLeaves exchanges two leaf labels in a Newick string.
func swapLeaves(newick, a, b string) string {
	const tmp = "\x00"
	newick = strings.ReplaceAll(newick, a+":", tmp+":")
	newick = strings.ReplaceAll(newick, b+":", a+":")
	return strings.ReplaceAll(newick, tmp+":", b+":")
}

func TestCheckerLogLTolerance(t *testing.T) {
	in := smallTree(t, 3)
	for _, tc := range []struct {
		rel  float64
		pass bool
	}{{0, true}, {1e-7, true}, {-1e-7, true}, {3e-6, false}, {-3e-6, false}} {
		got := *in.tree
		got.LogL *= 1 + tc.rel
		if err := checkTree(&got, in.tree); (err == nil) != tc.pass {
			t.Errorf("logL off by %g relative: check gave %v, want pass=%v", tc.rel, err, tc.pass)
		}
	}
}

// optional lists which of the server's optional DataManager interfaces dm
// implements.
func optional(dm dist.DataManager) [5]bool {
	_, cr := dm.(dist.CostReporter)
	_, pr := dm.(dist.Progresser)
	_, rq := dm.(dist.Requeuer)
	_, eq := dm.(dist.ResultEquivaler)
	_, du := dm.(dist.DurableDM)
	return [5]bool{cr, pr, rq, eq, du}
}

type bareDM struct{}

func (bareDM) NextUnit(int64) (*dist.Unit, bool, error) { return nil, false, nil }
func (bareDM) Consume(int64, []byte) error              { return nil }
func (bareDM) Done() bool                               { return false }
func (bareDM) FinalResult() ([]byte, error)             { return nil, nil }

type fullDM struct{ bareDM }

func (fullDM) RemainingCost() int64                         { return 0 }
func (fullDM) Progress() (int, int)                         { return 0, 0 }
func (fullDM) Requeue(int64)                                {}
func (fullDM) EquivalentResults(int64, []byte, []byte) bool { return true }
func (fullDM) DurableKind() string                          { return "" }
func (fullDM) MarshalState() ([]byte, error)                { return nil, nil }

func TestWrapDMExposesExactlyTheOptionalInterfaces(t *testing.T) {
	s, tr := smallSearch(t, 4), smallTree(t, 4)
	ds, _, err := s.build("s")
	if err != nil {
		t.Fatal(err)
	}
	dp, _, err := tr.build("t")
	if err != nil {
		t.Fatal(err)
	}
	for name, dm := range map[string]dist.DataManager{"dsearch": ds.DM, "dprml": dp.DM, "bare": bareDM{}} {
		wrapped, err := newTracer().wrapDM("p", dm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := optional(wrapped), optional(dm); got != want {
			t.Errorf("%s: wrapped DataManager has optional interfaces %v, the DataManager has %v", name, got, want)
		}
	}
	if _, err := newTracer().wrapDM("p", fullDM{}); err == nil {
		t.Error("a DataManager with an unsupported set of optional interfaces was wrapped")
	}
}

func TestStallDetectorFiresOnDataManagerThatNeverFinishes(t *testing.T) {
	srv := dist.NewServer()
	defer srv.Close()
	if err := srv.Submit(context.Background(), &dist.Problem{ID: "stuck", DM: bareDM{}}); err != nil {
		t.Fatal(err)
	}
	det := stallDetector{poll: time.Millisecond, idle: 50 * time.Millisecond, hang: time.Minute}
	err := det.watch(context.Background(), func(ctx context.Context) (dist.Status, error) { return srv.Status(ctx, "stuck") }, nil)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("watch on a DataManager that never finishes returned %v, want a stall", err)
	}
}

// TestUnseenSeedsAreChecked runs one traced problem of every workload on
// seeds the benchmark was not tuned on, and expects a checked, correct
// result and a valid trace.
func TestUnseenSeedsAreChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for i, name := range workloadNames() {
		seed := int64(7001 + i)
		in, err := workloads[name].gen(seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		o := runProblem(in, true, defaultDetector)
		if o.failed != nil || o.wrong != nil {
			t.Fatalf("%s seed %d: failed %v, wrong %v", name, seed, o.failed, o.wrong)
		}
		if err := traceInvalid(o); err != nil {
			t.Errorf("%s seed %d: %v", name, seed, err)
		}
		if in.durable && o.reopen == 0 {
			t.Errorf("%s seed %d: the coordinator was not restarted", name, seed)
		}
	}
}

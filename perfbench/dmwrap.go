package main

import (
	"fmt"
	"hash/maphash"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
)

// tracedDM times a DataManager's NextUnit, Consume and FinalResult.
type tracedDM struct {
	dm        dist.DataManager
	t         *tracer
	problemID string
}

func (w *tracedDM) NextUnit(budget int64) (*dist.Unit, bool, error) {
	start := time.Now()
	u, ok, err := w.dm.NextUnit(budget)
	end := time.Now()
	id := int64(-1)
	if ok && u != nil {
		id = u.ID
		w.t.mu.Lock()
		w.t.units[maphash.Bytes(payloadSeed, u.Payload)] = u.ID
		w.t.costs = append(w.t.costs, u.Cost)
		w.t.mu.Unlock()
	}
	w.t.add(layerDM, "next_unit", id, start, end)
	return u, ok, err
}

func (w *tracedDM) Consume(unitID int64, payload []byte) error {
	start := time.Now()
	err := w.dm.Consume(unitID, payload)
	end := time.Now()
	w.t.add(layerDM, "consume", unitID, start, end)
	w.t.mu.Lock()
	w.t.folds = append(w.t.folds, journal.Fold{ProblemID: w.problemID, Epoch: 1, UnitID: unitID, Payload: append([]byte(nil), payload...)})
	w.t.mu.Unlock()
	return err
}

func (w *tracedDM) Done() bool { return w.dm.Done() }

func (w *tracedDM) FinalResult() ([]byte, error) {
	start := time.Now()
	out, err := w.dm.FinalResult()
	w.t.add(layerDM, "final", -1, start, time.Now())
	return out, err
}

// wrapDM returns a traced DataManager that has exactly the optional
// interfaces dm has: the server type-asserts each of them, so one more or
// one fewer would change the scheduling and durability being measured.
// It covers the sets the applications' DataManagers have (the typed
// adapter's, with and without Requeuer, and none) and refuses any other.
func (t *tracer) wrapDM(problemID string, dm dist.DataManager) (dist.DataManager, error) {
	w := &tracedDM{dm: dm, t: t, problemID: problemID}
	cr, hasCR := dm.(dist.CostReporter)
	pr, hasPR := dm.(dist.Progresser)
	rq, hasRQ := dm.(dist.Requeuer)
	_, hasEQ := dm.(dist.ResultEquivaler)
	du, hasDU := dm.(dist.DurableDM)
	switch [5]bool{hasCR, hasPR, hasRQ, hasEQ, hasDU} {
	case [5]bool{}:
		return w, nil
	case [5]bool{true, true, false, false, true}:
		return struct {
			*tracedDM
			dist.CostReporter
			dist.Progresser
			dist.DurableDM
		}{w, cr, pr, du}, nil
	case [5]bool{true, true, true, false, true}:
		return struct {
			*tracedDM
			dist.CostReporter
			dist.Progresser
			dist.Requeuer
			dist.DurableDM
		}{w, cr, pr, rq, du}, nil
	}
	return nil, fmt.Errorf("perfbench: no traced wrapper for %T's set of optional interfaces", dm)
}

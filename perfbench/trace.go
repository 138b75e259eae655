package main

import (
	"context"
	"hash/maphash"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
)

// Span layers. A traced problem's wall time is attributed, instant by
// instant, to the innermost layer active then (the highest value below):
// a layer's self time is its spans minus the time its children cover.
const (
	layerNone    = iota // nothing traced is running: unaccounted time
	layerDist           // a unit between its dispatch and done events
	layerBench          // the benchmark's own steps: start, dial, build, submit, watch, restart, decode
	layerFetch          // a donor fetching the shared blob before Init
	layerInit           // Algorithm.Init
	layerDM             // DataManager NextUnit, Consume, FinalResult (under the problem lock)
	layerProcess        // Algorithm.ProcessCtx
	nLayers
)

var layerNames = [nLayers]string{"unaccounted", "dist", "setup", "fetch", "init", "datamanager", "process"}

// span is one traced interval. Spans of one unit share its unit ID; -1
// marks a span that belongs to no unit.
type span struct {
	layer      int
	name       string
	unit       int64
	start, end time.Time
}

// tracer records one problem's spans and counts from outside the program,
// through the seams the program already has. Untraced problems have none.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// units maps a unit payload's hash to the unit ID the DataManager gave
	// it, so a donor's ProcessCtx span, which sees only the payload, joins
	// its unit.
	units map[uint64]int64
	folds []journal.Fold // every Consume, for the journal replay
	costs []int64        // Unit.Cost of every unit cut

	ctrlBytes, ctrlCalls, liveConns atomic.Int64
}

var payloadSeed = maphash.MakeSeed()

func newTracer() *tracer { return &tracer{units: make(map[uint64]int64)} }

func (t *tracer) add(layer int, name string, unit int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{layer, name, unit, start, end})
	t.mu.Unlock()
}

// sum is the total duration of the spans with this name.
func (t *tracer) sum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// tracedAlg stamps a donor's shared-blob fetch (from the wrapper's
// creation, just before the donor fetches, to Init) and Init; on a traced
// problem it also times every ProcessCtx.
type tracedAlg struct {
	a       dist.Algorithm
	t       *tracer // nil: setup stamps only
	setup   *donorSetup
	created time.Time
	// lastEnd is when this donor's previous ProcessCtx on the problem
	// returned, or when the donor started if it has run none. A donor runs
	// one unit at a time, so no lock is needed.
	lastEnd time.Time
}

// donorSetup is one donor's first fetch and Init on a problem.
type donorSetup struct {
	mu                  sync.Mutex
	fetchStart, initEnd time.Time
}

func (d *donorSetup) stamp(fetchStart, initEnd time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fetchStart.IsZero() {
		d.fetchStart, d.initEnd = fetchStart, initEnd
	}
}

func (d *donorSetup) get() (fetchStart, initEnd time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fetchStart, d.initEnd
}

func (w *tracedAlg) Init(shared []byte) error {
	start := time.Now()
	err := w.a.Init(shared)
	end := time.Now()
	w.setup.stamp(w.created, end)
	if w.t != nil {
		w.t.add(layerFetch, "fetch", -1, w.created, start)
		w.t.add(layerInit, "init", -1, start, end)
	}
	return err
}

func (w *tracedAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	if w.t == nil {
		return w.a.ProcessCtx(ctx, payload)
	}
	start := time.Now()
	out, err := w.a.ProcessCtx(ctx, payload)
	end := time.Now()
	h := maphash.Bytes(payloadSeed, payload)
	w.t.mu.Lock()
	id, ok := w.t.units[h]
	w.t.mu.Unlock()
	if !ok {
		id = -1
	}
	w.t.add(layerProcess, "process", id, start, end)
	// Before a unit the donor is in the dist layer: submitting the previous
	// result and waiting for this task.
	w.t.add(layerDist, "donor_wait", -1, w.lastEnd, start)
	w.lastEnd = end
	return out, err
}

// countingConn counts a control connection's bytes and Read/Write calls in
// both directions.
type countingConn struct {
	net.Conn
	t    *tracer
	once sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.ctrlBytes.Add(int64(n))
	c.t.ctrlCalls.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.ctrlBytes.Add(int64(n))
	c.t.ctrlCalls.Add(1)
	return n, err
}

func (c *countingConn) Close() error {
	c.once.Do(func() { c.t.liveConns.Add(-1) })
	return c.Conn.Close()
}

func (t *tracer) wrapConn(c net.Conn) net.Conn {
	t.liveConns.Add(1)
	return &countingConn{Conn: c, t: t}
}

// unitEvents is what a problem's Watch streams showed.
type unitEvents struct {
	turnaround []time.Duration // per folded unit: first dispatch to done
	dropped    int
	orphans    int // units done with no dispatch event
}

// collectEvents drains one Watch stream into unit spans until it closes.
func (t *tracer) collectEvents(events <-chan dist.Event, ue *unitEvents) {
	type key struct{ epoch, unit int64 }
	dispatched := make(map[key]time.Time)
	for ev := range events {
		ue.dropped += ev.Dropped
		k := key{ev.Epoch, ev.UnitID}
		switch ev.Kind {
		case dist.EventUnitDispatched:
			if _, seen := dispatched[k]; !seen {
				dispatched[k] = ev.Time
			}
		case dist.EventUnitDone:
			start, ok := dispatched[k]
			if !ok {
				ue.orphans++
				continue
			}
			delete(dispatched, k)
			ue.turnaround = append(ue.turnaround, ev.Time.Sub(start))
			t.add(layerDist, "unit", ev.UnitID, start, ev.Time)
		}
	}
}

// selfTimes attributes every instant of [from, to] to the innermost layer
// active then and returns the time each layer got.
func (t *tracer) selfTimes(from, to time.Time) [nLayers]time.Duration {
	type edge struct {
		at    time.Time
		layer int
		delta int
	}
	edges := make([]edge, 0, 2*len(t.spans))
	for _, s := range t.spans {
		start, end := s.start, s.end
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		if end.After(start) {
			edges = append(edges, edge{start, s.layer, 1}, edge{end, s.layer, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	var active [nLayers]int
	var self [nLayers]time.Duration
	prev := from
	for _, e := range edges {
		top := layerNone
		for l := nLayers - 1; l > layerNone; l-- {
			if active[l] > 0 {
				top = l
				break
			}
		}
		self[top] += e.at.Sub(prev)
		prev = e.at
		active[e.layer] += e.delta
	}
	self[layerNone] += to.Sub(prev)
	return self
}

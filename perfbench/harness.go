package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/wire"
)

const (
	// donors is the fleet size: nproc on the reference host.
	donors    = 2
	problemID = "perfbench"
	// watchBuffer holds every event of the largest traced problem (about
	// three per unit), so a lagging collector never drops one.
	watchBuffer = 1 << 15
)

// outcome is one problem submitted, drained and checked.
type outcome struct {
	in       *instance
	setup    time.Duration // coordinator start to Submit, plus the donors' fetch and Init
	makespan time.Duration // Submit to the decoded final result
	cpu      time.Duration // process user+sys CPU over the makespan
	// failed is why the problem ended without a result (an error or a
	// stall); wrong is why its result differs from the oracle.
	failed, wrong error
	stats         dist.ProblemStats

	// Traced problems only.
	tr          *tracer
	ue          unitEvents
	t0, end     time.Time // the problem's timeline: coordinator start to decoded result
	parse       time.Duration
	bulk        wire.BulkStats
	blobFetches int64
	// Durable problems only.
	reopen       time.Duration // Close starting to the reopened coordinator listening
	foldsAtClose int
	dataBytes    int64
}

// fleet is one coordinator incarnation and the donors dialled to it.
type fleet struct {
	ns      *dist.NetworkServer
	clients []*dist.RPCClient
	donors  []*dist.Donor
	caches  []*dist.BlobCache
	setups  []*donorSetup
	started time.Time // set by start, before any donor runs
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// dialFleet dials the donors, one control connection each, with
// cmd/donor's defaults except Redial: a donor told that the server closed
// exits, and the benchmark dials fresh ones, as an operator restarting
// cmd/donor would.
func dialFleet(ns *dist.NetworkServer, tr *tracer) (*fleet, error) {
	f := &fleet{ns: ns}
	for i := 0; i < donors; i++ {
		var dopts []dist.DialOption
		if tr != nil {
			dopts = append(dopts, dist.WithConnWrapper(tr.wrapConn))
		}
		c, err := dist.Dial(ns.RPCAddr(), 30*time.Second, dopts...)
		if err != nil {
			f.close()
			return nil, err
		}
		setup := &donorSetup{}
		cache := dist.NewBlobCache(256 << 20)
		f.clients = append(f.clients, c)
		f.caches = append(f.caches, cache)
		f.setups = append(f.setups, setup)
		f.donors = append(f.donors, dist.NewDonor(c,
			dist.WithName(fmt.Sprintf("donor-%d", i)),
			dist.WithCancelPoll(500*time.Millisecond),
			dist.WithLongPollWait(45*time.Second),
			dist.WithBlobCache(cache),
			dist.WithTaskBatch(8),
			dist.WithAlgorithmWrapper(func(_ string, a dist.Algorithm) dist.Algorithm {
				return &tracedAlg{a: a, t: tr, setup: setup, created: time.Now(), lastEnd: f.started}
			}),
		))
	}
	return f, nil
}

func (f *fleet) start() {
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	f.started = time.Now()
	for _, d := range f.donors {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = d.Run(ctx) // ends with ErrClosed, a lost server or the stop below
		}()
	}
}

// close closes the coordinator (donors get the server-closed reply), then
// stops every donor and waits until each has returned.
func (f *fleet) close() {
	_ = f.ns.Close()
	if f.stop != nil {
		f.stop()
	}
	f.wg.Wait()
	for _, c := range f.clients {
		_ = c.Close()
	}
}

// setupWall is the longest shared-blob fetch plus Init among the donors,
// which fetch and initialise in parallel.
func (f *fleet) setupWall() time.Duration {
	var longest time.Duration
	for _, s := range f.setups {
		if fetch, end := s.get(); end.Sub(fetch) > longest {
			longest = end.Sub(fetch)
		}
	}
	return longest
}

// runProblem runs one problem over the real network path: a ListenAndServe
// coordinator on loopback and two Dial-ed donors in this process. With
// traced set, it records spans and counts through the program's seams.
func runProblem(in *instance, traced bool, det stallDetector) *outcome {
	o := &outcome{in: in}
	var tr *tracer
	if traced {
		tr = newTracer()
		o.tr = tr
	}
	runtime.GC()

	o.t0 = time.Now()
	opts := []dist.ServerOption{dist.WithPolicy(in.policy)}
	var dataDir string
	if in.durable {
		var err error
		if dataDir, err = os.MkdirTemp("", "perfbench-journal-"); err != nil {
			o.failed = err
			return o
		}
		defer os.RemoveAll(dataDir)
		opts = append(opts, dist.WithDataDir(dataDir))
	}
	if traced {
		opts = append(opts, dist.WithWatchBuffer(watchBuffer))
	}
	bench := func(name string, start time.Time) {
		if tr != nil {
			tr.add(layerBench, name, -1, start, time.Now())
		}
	}
	ns, err := dist.ListenAndServe("127.0.0.1:0", "127.0.0.1:0", opts...)
	if err != nil {
		o.failed = err
		return o
	}
	bench("start", o.t0)
	step := time.Now()
	f, err := dialFleet(ns, tr)
	if err != nil {
		_ = ns.Close()
		o.failed = err
		return o
	}
	defer func() { f.close() }()
	bench("dial", step)
	if tr != nil && tr.liveConns.Load() != donors {
		o.failed = fmt.Errorf("hygiene: %d control connections open for %d donors", tr.liveConns.Load(), donors)
		return o
	}

	step = time.Now()
	p, parse, err := in.build(problemID)
	if err != nil {
		o.failed = err
		return o
	}
	o.parse = parse
	if tr != nil {
		if p.DM, err = tr.wrapDM(problemID, p.DM); err != nil {
			o.failed = err
			return o
		}
	}
	bench("build", step)

	var collectors sync.WaitGroup
	watch := func(ns *dist.NetworkServer) error {
		if tr == nil {
			return nil
		}
		step := time.Now()
		events, err := ns.Watch(context.Background(), problemID)
		if err != nil {
			return err
		}
		bench("watch", step)
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			tr.collectEvents(events, &o.ue)
		}()
		return nil
	}

	cpu0 := cpuTime()
	submitted := time.Now()
	if err := ns.Submit(context.Background(), p); err != nil {
		o.failed = err
		return o
	}
	bench("submit", submitted)
	setupPre := time.Since(o.t0)
	// Subscribe before any donor runs, so the stream holds every dispatch.
	if err := watch(ns); err != nil {
		o.failed = err
		return o
	}
	first := f
	f.start()

	var out []byte
	for {
		ns := f.ns
		var halfway func(dist.Status) bool
		if in.durable && o.reopen == 0 {
			halfway = func(st dist.Status) bool { return 2*st.AppDone >= st.AppTotal }
		}
		res, err := waitWatched(ns, det, halfway)
		if errors.Is(err, errHalfway) {
			nf, err := restart(f, tr, o, opts, bench)
			if err != nil {
				o.failed = err
				return o
			}
			f = nf
			collectors.Wait() // the closed coordinator's stream has ended
			if err := watch(f.ns); err != nil {
				o.failed = err
				return o
			}
			f.start()
			continue
		}
		if err != nil {
			o.failed = err
			if st, serr := ns.Stats(context.Background(), problemID); serr == nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s problem failed: %v; stats %+v\n", in.workload, err, st)
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: %s problem failed: %v\n", in.workload, err)
			}
			return o
		}
		out = res
		break
	}
	decodeStart := time.Now()
	got, err := in.decode(out)
	o.end = time.Now()
	o.makespan = o.end.Sub(submitted)
	o.cpu = cpuTime() - cpu0
	bench("decode", decodeStart)
	o.setup = setupPre + first.setupWall()
	if err != nil {
		o.failed = err
		return o
	}
	if o.wrong = in.check(got); o.wrong != nil {
		return o
	}
	if o.stats, err = f.ns.Stats(context.Background(), problemID); err != nil {
		o.failed = err
		return o
	}
	if in.units > 0 && o.stats.Completed < in.units {
		o.wrong = fmt.Errorf("%d units folded, the input has %d", o.stats.Completed, in.units)
		return o
	}
	if in.durable && o.reopen == 0 {
		o.failed = errors.New("the coordinator was never restarted")
		return o
	}
	if dataDir != "" {
		o.dataBytes = dirBytes(dataDir)
	}
	if tr == nil {
		return o
	}
	o.addBulk(f.ns)
	f.close() // ends the Watch stream and the donors
	collectors.Wait()
	for _, c := range f.caches {
		o.blobFetches += c.Fetches()
	}
	return o
}

// addBulk adds a coordinator incarnation's bulk-channel counts.
func (o *outcome) addBulk(ns *dist.NetworkServer) {
	b := ns.BulkStats()
	o.bulk.Fetches += b.Fetches
	o.bulk.BytesServed += b.BytesServed
}

// waitResult is what one Wait returned.
type waitResult struct {
	out []byte
	err error
}

// waitWatched waits for the problem's result while the stall detector
// watches its progress. It returns errHalfway when halfway reports true,
// and the detector's error, after cancelling the Wait, on a stall.
func waitWatched(ns *dist.NetworkServer, det stallDetector, halfway func(dist.Status) bool) ([]byte, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waitCh := make(chan waitResult, 1)
	go func() {
		out, err := ns.Wait(ctx, problemID)
		waitCh <- waitResult{out, err}
	}()
	monCh := make(chan error, 1)
	go func() {
		monCh <- det.watch(ctx, func(ctx context.Context) (dist.Status, error) { return ns.Status(ctx, problemID) }, halfway)
	}()
	select {
	case w := <-waitCh:
		cancel()
		<-monCh
		return w.out, w.err
	case err := <-monCh:
		if err == nil {
			// The detector saw the problem done; Wait returns at once.
			w := <-waitCh
			return w.out, w.err
		}
		return nil, err // the deferred cancel ends the Wait
	}
}

// restart closes the coordinator gracefully (Close writes a final
// checkpoint and sends donors the server-closed reply), reopens it on the
// same data directory and addresses, and dials two fresh donors.
func restart(f *fleet, tr *tracer, o *outcome, opts []dist.ServerOption, bench func(string, time.Time)) (*fleet, error) {
	rpcAddr, bulkAddr := f.ns.RPCAddr(), f.ns.BulkAddr()
	st, err := f.ns.Stats(context.Background(), problemID)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		o.addBulk(f.ns)
	}
	closing := time.Now()
	// The Wait on the closing coordinator returns ErrClosed; waitWatched
	// already collected it.
	f.close()
	for _, c := range f.caches {
		o.blobFetches += c.Fetches()
	}
	ns, err := dist.ListenAndServe(rpcAddr, bulkAddr, opts...)
	if err != nil {
		return nil, fmt.Errorf("reopening the coordinator: %w", err)
	}
	o.reopen = time.Since(closing)
	o.foldsAtClose = st.Completed
	bench("restart", closing)
	step := time.Now()
	nf, err := dialFleet(ns, tr)
	if err != nil {
		_ = ns.Close()
		return nil, err
	}
	bench("dial", step)
	return nf, nil
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

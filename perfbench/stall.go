package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dist"
)

// errHalfway is the detector's signal that the halfway condition held.
var errHalfway = errors.New("half of the problem folded")

// stallDetector declares a problem stalled by lack of progress, never by
// a deadline on the problem as a whole: a slower host takes longer but
// keeps folding units or keeps units in flight.
type stallDetector struct {
	poll time.Duration // how often Status is read
	// idle is how long the problem may go with no fold and nothing in
	// flight; on a working coordinator that lasts microseconds (a fold to
	// the next dispatch).
	idle time.Duration
	// hang is how long it may go with no fold at all, units in flight or
	// not, so a run never hangs on a unit that never returns.
	hang time.Duration
}

var defaultDetector = stallDetector{poll: 5 * time.Millisecond, idle: 5 * time.Second, hang: 60 * time.Second}

// watch reads the problem's Status until ctx ends (nil), the problem is
// done (nil), halfway reports true (errHalfway), or the problem stalls.
func (d stallDetector) watch(ctx context.Context, status func(context.Context) (dist.Status, error), halfway func(dist.Status) bool) error {
	tick := time.NewTicker(d.poll)
	defer tick.Stop()
	completed := -1
	var lastFold, idleSince time.Time
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		st, err := status(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("reading status: %w", err)
		}
		if st.Done {
			return nil
		}
		now := time.Now()
		if st.Completed != completed {
			completed, lastFold = st.Completed, now
		}
		if halfway != nil && halfway(st) {
			return errHalfway
		}
		switch {
		case st.Inflight > 0:
			idleSince = time.Time{}
		case idleSince.IsZero():
			idleSince = now
		}
		if !idleSince.IsZero() && now.Sub(idleSince) >= d.idle && now.Sub(lastFold) >= d.idle {
			return fmt.Errorf("stalled: no fold and nothing in flight for %s (%d units folded)", d.idle, st.Completed)
		}
		if now.Sub(lastFold) >= d.hang {
			return fmt.Errorf("stalled: no fold for %s (%d units folded, %d in flight)", d.hang, st.Completed, st.Inflight)
		}
	}
}

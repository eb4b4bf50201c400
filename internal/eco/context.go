package eco

import (
	"context"
	"sync"

	"ecopatch/internal/sat"
)

// solverGroup tracks every SAT solver created during one engine run so
// that a deadline or context cancellation can interrupt them all. add
// is safe to call concurrently with interruptAll; a solver registered
// after the group was stopped is interrupted immediately, closing the
// race between a firing timer and a freshly created solver.
//
// A stage whose solvers are finished when it returns brackets itself
// with mark and release: release folds those solvers' counters into
// released and drops them, so their clause databases do not stay
// reachable for the rest of the run.
type solverGroup struct {
	mu       sync.Mutex
	solvers  []*sat.Solver
	released sat.Stats // counters of the solvers dropped by release
	stopped  bool
}

// add registers a solver with the group.
func (g *solverGroup) add(s *sat.Solver) {
	g.mu.Lock()
	if g.stopped {
		s.Interrupt()
	}
	g.solvers = append(g.solvers, s)
	g.mu.Unlock()
}

// mark returns the position a later release cuts the group back to.
func (g *solverGroup) mark() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.solvers)
}

// release folds the counters of every solver registered since mark m
// into the running total and drops those solvers. Call only once they
// have stopped solving for good: a released solver is no longer
// interrupted, and later Stats changes on it are not counted.
func (g *solverGroup) release(m int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.solvers[m:] {
		g.released.Add(s.Stats)
	}
	clear(g.solvers[m:])
	g.solvers = g.solvers[:m]
}

// stats sums the kernel counters of every solver created during the
// run, released ones included. Call only between solves (solvers
// mutate their own Stats while searching).
func (g *solverGroup) stats() sat.Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := g.released
	for _, s := range g.solvers {
		total.Add(s.Stats)
	}
	return total
}

// The work meter bounds each target's support and patch stage where
// they can run away, in SAT_prune and cube enumeration: past
// stageAllot ticks SAT_prune degrades to minimize_assumptions and cube
// enumeration hands the target to the structural patch. A tick is one
// propagation of the run's solvers (a delta of the group's stats); a
// hitting-set node, about as slow as eight propagations, costs
// hittingNodeTicks. Unlike a wall clock, the meter stops a stage at
// the same point under any load. workAllot is about twice the largest
// stage charge of any Table-1 cell (EXPERIMENTS E26).
const (
	workAllot        = 130_000_000
	hittingNodeTicks = 8
)

// stageAllot is workAllot; only tests lower it, to reach the fallbacks.
var stageAllot int64 = workAllot

// interruptAll interrupts every registered solver and marks the group
// stopped so later registrations abort immediately.
func (g *solverGroup) interruptAll() {
	g.mu.Lock()
	g.stopped = true
	for _, s := range g.solvers {
		s.Interrupt()
	}
	g.mu.Unlock()
}

// watch arms a goroutine that interrupts the whole group when ctx is
// canceled (deadline expiry included). The returned stop function
// releases the watcher; it must be called before the engine's result
// is read so no interrupt fires after the run is over.
func (g *solverGroup) watch(ctx context.Context) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			g.interruptAll()
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

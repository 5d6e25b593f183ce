// Package parallel is the repository's shared execution engine: a bounded,
// deterministic worker pool that every fan-out (Yen all-pairs route
// computation, experiment cell loops, MCF per-commodity work, whole-registry
// runs) is routed through, plus a content-keyed memoization cache (cache.go)
// that lets repeated experiment cells reuse route tables and LP solutions
// instead of recomputing them.
//
// Determinism is the design constraint: results are collected by index, the
// error reported by a batch is always the one at the lowest failing index,
// and panics re-surface with their original value — so the same seed and
// the same worker count (indeed, ANY worker count) produce byte-identical
// experiment output. The pool size defaults to GOMAXPROCS and is overridden
// process-wide by the -workers CLI flag via SetDefaultWorkers.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"flattree/internal/telemetry"
)

// Config tunes a Pool.
type Config struct {
	// Workers bounds the number of concurrently running tasks. Zero or
	// negative selects DefaultWorkers().
	Workers int
}

// Pool executes batches of indexed tasks on a bounded number of
// goroutines. A Pool is stateless between batches and safe for concurrent
// use; goroutines exist only while a batch is running, so an idle Pool
// costs nothing.
type Pool struct {
	workers int
}

// New returns a pool of the configured size.
func New(cfg Config) *Pool {
	w := cfg.Workers
	if w <= 0 {
		w = DefaultWorkers()
	}
	return &Pool{workers: w}
}

// Default returns a pool sized to the current process-wide default.
func Default() *Pool { return New(Config{}) }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

var defaultWorkers atomic.Int64

// SetDefaultWorkers overrides the process-wide default pool size (wired to
// the flatsim/benchtables -workers flag). n <= 0 restores the GOMAXPROCS
// default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// CheckWorkers rejects a negative -workers flag value: SetDefaultWorkers
// would run it as the GOMAXPROCS default while a run's provenance
// manifest records the value given. Every binary with the flag calls it
// before doing any work and prints the error after its name.
func CheckWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers %d (want >= 0; 0 = GOMAXPROCS)", n)
	}
	return nil
}

// DefaultWorkers returns the process-wide default pool size: the value of
// the last SetDefaultWorkers call, or GOMAXPROCS.
func DefaultWorkers() int {
	if v := defaultWorkers.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// TaskPanic is the value re-panicked by a batch when a task panicked: it
// preserves the original panic value and the panicking task's stack.
type TaskPanic struct {
	Index int
	Value interface{}
	Stack []byte
}

func (t TaskPanic) String() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", t.Index, t.Value, t.Stack)
}

// failure records the outcome of one failed task; the batch reports the
// failure with the lowest index so error identity never depends on
// goroutine scheduling.
type failure struct {
	err      error
	panicked bool
	panicVal interface{}
	stack    []byte
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers goroutines
// and returns when all tasks finished. A task panic is re-raised in the
// caller as a TaskPanic (lowest panicking index).
func (p *Pool) ForEach(n int, fn func(i int)) {
	// fn cannot error, so run can only fail by panic, which it re-raises.
	_ = p.run(context.Background(), n, func(_ context.Context, i int) error {
		fn(i)
		return nil
	})
}

// ForEachErr runs fn for every index, stopping early when ctx is
// cancelled. When one or more tasks fail, every task with a smaller index
// still runs and the returned error is the lowest-index one — the same
// error a serial loop would report — so error output is deterministic for
// any worker count.
func (p *Pool) ForEachErr(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return p.run(ctx, n, fn)
}

// Map runs fn for every index and returns the results in index order, so
// output never depends on completion order. On error the lowest-index
// failure is returned and the results are discarded.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.run(context.Background(), n, func(_ context.Context, i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn on the default pool.
func ForEach(n int, fn func(i int)) { Default().ForEach(n, fn) }

// run is the batch engine. Tasks are claimed from an atomic counter in
// ascending index order; a recorded failure at index f suppresses tasks
// with larger indexes (they can only be claimed after f was), so the
// minimum failing index — the reported one — is schedule-independent.
func (p *Pool) run(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	telemetry.C("parallel_batches_total").Inc()
	telemetry.C("parallel_tasks_total").Add(int64(n))

	var (
		next     atomic.Int64
		failMu   sync.Mutex
		failIdx  = n // lowest failing index seen so far
		failInfo failure
	)
	recordFailure := func(i int, f failure) {
		failMu.Lock()
		if i < failIdx {
			failIdx, failInfo = i, f
		}
		failMu.Unlock()
	}
	minFailIdx := func() int {
		failMu.Lock()
		defer failMu.Unlock()
		return failIdx
	}
	runTask := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 8192)
				buf = buf[:runtime.Stack(buf, false)]
				recordFailure(i, failure{panicked: true, panicVal: r, stack: buf})
			}
		}()
		if err := fn(ctx, i); err != nil {
			recordFailure(i, failure{err: err})
		}
	}
	worker := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if ctx.Err() != nil {
				return
			}
			if i > minFailIdx() {
				continue
			}
			runTask(i)
		}
	}

	if workers == 1 {
		// Inline fast path: no goroutines, identical failure semantics.
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	if failIdx < n {
		if failInfo.panicked {
			panic(TaskPanic{Index: failIdx, Value: failInfo.panicVal, Stack: failInfo.stack})
		}
		return failInfo.err
	}
	return ctx.Err()
}

// Package exp is the parallel experiment engine behind the figure
// runners. The paper's evaluation is a large matrix of independent
// simulations — app × line size × variant × prefetch block — and every
// cell constructs its own Machine, so the matrix is embarrassingly
// parallel. The engine turns a runner's nested loops into a slice of
// job Specs, executes them across a worker pool, and returns results
// indexed exactly as the specs were given: callers observe the same
// deterministic order as the old serial loops, byte for byte, at any
// worker count.
//
// Progress is observable through the existing observability layer
// (internal/obs): an optional Progress publishes jobs queued / running
// / done and per-cell wall time as metrics-registry views, and an
// optional Tracer receives one phaseBegin/phaseEnd event pair per cell
// (timestamped in wall-clock microseconds since the engine started, so
// a Perfetto sink renders the pool as a span timeline).
package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memfwd/internal/obs"
)

// Spec identifies one cell of an experiment matrix. Zero fields are
// simply absent (the false-sharing experiment has no line size or
// prefetch block, for example); App and Variant carry the identity.
type Spec struct {
	App     string
	Line    int // cache line size in bytes, 0 if not swept
	Variant string
	Block   int // prefetch block size in lines, 0 if none
}

// String renders the cell compactly ("health/line32/NP/blk4") for
// trace labels and progress output.
func (s Spec) String() string {
	parts := make([]string, 0, 4)
	if s.App != "" {
		parts = append(parts, s.App)
	}
	if s.Line > 0 {
		parts = append(parts, fmt.Sprintf("line%d", s.Line))
	}
	if s.Variant != "" {
		parts = append(parts, s.Variant)
	}
	if s.Block > 0 {
		parts = append(parts, fmt.Sprintf("blk%d", s.Block))
	}
	return strings.Join(parts, "/")
}

// Config parameterizes one engine invocation.
type Config struct {
	// Jobs is the worker-pool size; <= 0 takes GOMAXPROCS. Results are
	// identical at every value — only wall time changes.
	Jobs int

	// Tracer, when non-nil, receives a phaseBegin/phaseEnd event pair
	// per job (Label = Spec.String(), N = job index, Cycle = wall-clock
	// microseconds since RunChecked started). The engine serializes its
	// own emissions; the tracer must not be fed concurrently by others
	// while RunChecked executes.
	Tracer *obs.Tracer

	// Progress, when non-nil, is updated live as jobs move through the
	// pool; register it on a metrics registry to watch long suites.
	Progress *Progress

	// Ctx, when non-nil, cancels the suite: jobs not yet started when
	// it is done are recorded as canceled without running, and running
	// jobs are abandoned at the next cancellation check. A
	// context.WithDeadline here is the per-suite deadline. Nil means
	// context.Background().
	Ctx context.Context

	// JobTimeout, when > 0, is the per-job deadline. A cell that
	// exceeds it is recorded as a timeout JobError and its goroutine is
	// abandoned (simulation cells are CPU-bound and cannot be
	// preempted; the abandoned goroutine finishes on its own machine
	// and its result is discarded).
	JobTimeout time.Duration
}

// JobError describes one job the engine could not complete. Exactly
// one cause is set: Panic (with Stack) for a recovered panic, Timeout
// for a per-job deadline, Canceled (with the context's Err) for suite
// cancellation.
type JobError struct {
	Index int
	Spec  Spec

	Err      error
	Panic    any
	Stack    []byte
	Timeout  bool
	Canceled bool
}

// Error renders the full diagnostic.
func (e *JobError) Error() string {
	return fmt.Sprintf("exp: job %d (%s) failed: %s", e.Index, e.Spec, e.Reason())
}

// Unwrap exposes Err to errors.Is/As chains.
func (e *JobError) Unwrap() error { return e.Err }

// Reason is a deterministic one-line cause — stable across worker
// counts and runs, so "incomplete" markers in figure output stay
// byte-identical between -jobs=1 and -jobs=N.
func (e *JobError) Reason() string {
	switch {
	case e == nil:
		return ""
	case e.Timeout:
		return "timeout"
	case e.Canceled:
		return "canceled"
	case e.Panic != nil:
		return fmt.Sprintf("panic: %v", e.Panic)
	}
	return "failed"
}

// RunChecked executes run(i, specs[i]) for every spec across a worker
// pool and returns the results in spec order. The result slice layout
// is independent of worker count and completion order, which is what
// keeps tables, golden files, and -json output byte-identical between
// -jobs=1 and -jobs=N.
//
// Failures are contained per job: a job that panics, times out
// (Config.JobTimeout), or is cancelled (Config.Ctx) becomes a JobError
// instead of crashing the suite, and every other cell still completes
// and lands at its spec index. The returned errors are in index order;
// results at failed indices are the zero R.
//
// Workers claim job indices from a shared atomic counter, so a worker
// that dies or is abandoned can never wedge submission — the old
// channel-fed pool deadlocked the submitting goroutine if a worker
// exited without draining it.
func RunChecked[R any](cfg Config, specs []Spec, run func(i int, s Spec) R) ([]R, []*JobError) {
	results := make([]R, len(specs))
	if len(specs) == 0 {
		return results, nil
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}

	cfg.Progress.enqueue(len(specs))
	cfg.Progress.start(jobs)
	start := time.Now()
	var traceMu sync.Mutex
	emit := func(kind obs.Kind, i int) {
		if cfg.Tracer == nil {
			return
		}
		traceMu.Lock()
		cfg.Tracer.Emit(obs.Event{
			Cycle: time.Since(start).Microseconds(),
			Kind:  kind,
			N:     uint64(i),
			Label: specs[i].String(),
		})
		traceMu.Unlock()
	}

	errs := make([]*JobError, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				cfg.Progress.begin()
				if err := ctx.Err(); err != nil {
					errs[i] = &JobError{Index: i, Spec: specs[i], Canceled: true, Err: err}
					cfg.Progress.fail(0)
					continue
				}
				emit(obs.KPhaseBegin, i)
				t0 := time.Now()
				r, jerr := runJob(ctx, cfg.JobTimeout, i, specs[i], run)
				d := time.Since(t0)
				emit(obs.KPhaseEnd, i)
				if jerr != nil {
					errs[i] = jerr
					cfg.Progress.fail(d)
				} else {
					results[i] = r
					cfg.Progress.finish(d)
				}
			}
		}()
	}
	wg.Wait()

	var out []*JobError
	for _, e := range errs {
		if e != nil {
			out = append(out, e)
		}
	}
	return results, out
}

// jobOutcome is what one job produced.
type jobOutcome[R any] struct {
	r     R
	pan   any
	stack []byte
}

// runJob executes one job with panic recovery and the per-job
// deadline. With no deadline and no cancellable context, it calls run
// directly on the worker goroutine; otherwise it runs the job on its
// own goroutine and selects against the deadline and the context,
// abandoning the job on expiry (the buffered channel lets the
// abandoned goroutine finish and be collected; only runJob's caller
// touches shared state).
func runJob[R any](ctx context.Context, timeout time.Duration, i int, s Spec, run func(int, Spec) R) (R, *JobError) {
	call := func() (o jobOutcome[R]) {
		defer func() {
			if p := recover(); p != nil {
				o.pan = p
				o.stack = debug.Stack()
			}
		}()
		o.r = run(i, s)
		return o
	}
	var out jobOutcome[R]
	if timeout <= 0 && ctx.Done() == nil {
		out = call()
	} else {
		ch := make(chan jobOutcome[R], 1)
		go func() { ch <- call() }()
		var timer <-chan time.Time
		if timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			timer = t.C
		}
		select {
		case out = <-ch:
		case <-timer:
			return out.r, &JobError{Index: i, Spec: s, Timeout: true}
		case <-ctx.Done():
			return out.r, &JobError{Index: i, Spec: s, Canceled: true, Err: ctx.Err()}
		}
	}
	if out.pan != nil {
		return out.r, &JobError{Index: i, Spec: s, Panic: out.pan, Stack: out.stack}
	}
	return out.r, nil
}

// Progress is the engine's observable state: jobs queued, running, and
// done, plus per-cell wall-time aggregates. One Progress may be shared
// across several RunChecked invocations (a whole figure suite); counts
// accumulate. All methods are safe for concurrent use and are no-ops
// on a nil receiver, mirroring the obs.Tracer idiom.
type Progress struct {
	mu        sync.Mutex
	enqueued  int
	queued    int
	running   int
	done      int
	failed    int
	workers   int
	startedAt time.Time
	wallSum   time.Duration
	wallMax   time.Duration
	lastSpan  time.Duration
}

// ProgressSnapshot is one atomic reading of all Progress counters,
// taken under a single lock acquisition so the conservation invariant
// Enqueued == Queued + Running + Done + Failed holds in every
// snapshot, even while jobs are in flight.
type ProgressSnapshot struct {
	Enqueued int
	Queued   int
	Running  int
	Done     int
	Failed   int
}

func (p *Progress) enqueue(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.enqueued += n
	p.queued += n
	p.mu.Unlock()
}

// start records the worker-pool width for utilization accounting. The
// pool clock starts at the first RunChecked sharing this Progress; a
// later one with a wider pool widens the recorded width (utilization
// stays conservative).
func (p *Progress) start(workers int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.startedAt.IsZero() {
		p.startedAt = time.Now()
	}
	if workers > p.workers {
		p.workers = workers
	}
	p.mu.Unlock()
}

func (p *Progress) begin() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.queued--
	p.running++
	p.mu.Unlock()
}

func (p *Progress) finish(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.running--
	p.done++
	p.wallSum += d
	p.lastSpan = d
	if d > p.wallMax {
		p.wallMax = d
	}
	p.mu.Unlock()
}

func (p *Progress) fail(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.running--
	p.failed++
	p.wallSum += d
	p.lastSpan = d
	if d > p.wallMax {
		p.wallMax = d
	}
	p.mu.Unlock()
}

// Enqueued returns the total number of jobs ever submitted.
func (p *Progress) Enqueued() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.enqueued
}

// Failed returns the number of jobs that ended in a JobError.
func (p *Progress) Failed() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// Snapshot returns all counters under one lock acquisition; see
// ProgressSnapshot for the invariant it preserves.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProgressSnapshot{
		Enqueued: p.enqueued,
		Queued:   p.queued,
		Running:  p.running,
		Done:     p.done,
		Failed:   p.failed,
	}
}

// Queued returns the number of jobs submitted but not yet started.
func (p *Progress) Queued() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Running returns the number of jobs currently executing.
func (p *Progress) Running() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// Done returns the number of completed jobs.
func (p *Progress) Done() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}

// CellWallSum returns the summed wall time of all completed cells (the
// serial-equivalent cost of the work done so far).
func (p *Progress) CellWallSum() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wallSum
}

// CellWallMax returns the wall time of the slowest completed cell.
func (p *Progress) CellWallMax() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wallMax
}

// CellWallLast returns the wall time of the most recently completed
// cell.
func (p *Progress) CellWallLast() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSpan
}

// Workers returns the widest worker pool seen so far.
func (p *Progress) Workers() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers
}

// Utilization returns summed cell wall time over (elapsed × workers) —
// the fraction of pool capacity spent inside cells, in [0,1] under
// normal accounting, 0 before any RunChecked starts.
func (p *Progress) Utilization() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.workers == 0 || p.startedAt.IsZero() {
		return 0
	}
	elapsed := time.Since(p.startedAt)
	if elapsed <= 0 {
		return 0
	}
	return p.wallSum.Seconds() / (elapsed.Seconds() * float64(p.workers))
}

// RegisterMetrics exposes the progress counters on a metrics registry
// as live views: exp.jobs.queued / running / done / failed and
// exp.cell.wall_seconds.{sum,max,last}. Register once per registry.
func (p *Progress) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("exp.jobs.queued", func() float64 { return float64(p.Queued()) })
	r.GaugeFunc("exp.jobs.running", func() float64 { return float64(p.Running()) })
	r.GaugeFunc("exp.jobs.done", func() float64 { return float64(p.Done()) })
	r.GaugeFunc("exp.jobs.failed", func() float64 { return float64(p.Failed()) })
	r.GaugeFunc("exp.cell.wall_seconds.sum", func() float64 { return p.CellWallSum().Seconds() })
	r.GaugeFunc("exp.cell.wall_seconds.max", func() float64 { return p.CellWallMax().Seconds() })
	r.GaugeFunc("exp.cell.wall_seconds.last", func() float64 { return p.CellWallLast().Seconds() })
	r.GaugeFunc("exp.workers", func() float64 { return float64(p.Workers()) })
	r.GaugeFunc("exp.pool.utilization", func() float64 { return p.Utilization() })
}

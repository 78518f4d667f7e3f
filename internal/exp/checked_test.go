package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPanicDoesNotWedgePool is the regression test for the submission
// deadlock: with the old channel-fed pool, a worker that died without
// draining the index channel left the submitting goroutine blocked
// forever. Now a panicking job becomes a JobError and every other cell
// still completes.
func TestPanicDoesNotWedgePool(t *testing.T) {
	specs := specN(40)
	done := make(chan struct{})
	var results []int
	var errs []*JobError
	go func() {
		defer close(done)
		results, errs = RunChecked(Config{Jobs: 2}, specs, func(i int, s Spec) int {
			if i == 3 || i == 17 {
				panic(fmt.Sprintf("boom %d", i))
			}
			return i * 7
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunChecked wedged after a job panic")
	}
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2: %v", len(errs), errs)
	}
	if errs[0].Index != 3 || errs[1].Index != 17 {
		t.Fatalf("error indices %d,%d want 3,17", errs[0].Index, errs[1].Index)
	}
	for _, e := range errs {
		if e.Panic == nil || len(e.Stack) == 0 {
			t.Fatalf("job %d: panic/stack not captured: %+v", e.Index, e)
		}
		if want := fmt.Sprintf("panic: boom %d", e.Index); e.Reason() != want {
			t.Fatalf("Reason() = %q, want %q", e.Reason(), want)
		}
	}
	for i, v := range results {
		if i == 3 || i == 17 {
			if v != 0 {
				t.Fatalf("failed cell %d has nonzero result %d", i, v)
			}
			continue
		}
		if v != i*7 {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*7)
		}
	}
}

func TestCancellationMidSuite(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	specs := specN(50)
	var started sync.Map
	p := &Progress{}
	results, errs := RunChecked(Config{Jobs: 2, Ctx: ctx, Progress: p}, specs, func(i int, s Spec) int {
		started.Store(i, true)
		if i == 5 {
			cancel()
		}
		return i + 1
	})
	if len(errs) == 0 {
		t.Fatal("no jobs were canceled")
	}
	for _, e := range errs {
		if !e.Canceled {
			t.Fatalf("job %d failed for a non-cancellation reason: %v", e.Index, e)
		}
		if e.Reason() != "canceled" {
			t.Fatalf("Reason() = %q", e.Reason())
		}
		if results[e.Index] != 0 {
			t.Fatalf("canceled job %d has a result", e.Index)
		}
	}
	// Jobs in flight when cancel fires may race their own completion
	// against ctx.Done, but the tail of the suite must be canceled
	// without ever running.
	neverRan := 0
	for _, e := range errs {
		if _, ran := started.Load(e.Index); !ran {
			neverRan++
		}
	}
	if neverRan == 0 {
		t.Fatal("every canceled job had already started; cancellation did not stop the queue")
	}
	// Every spec is accounted for exactly once: completed or canceled.
	snap := p.Snapshot()
	if snap.Enqueued != len(specs) || snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("snapshot after return: %+v", snap)
	}
	if snap.Done+snap.Failed != len(specs) || snap.Failed != len(errs) {
		t.Fatalf("done %d + failed %d != %d (errs %d)", snap.Done, snap.Failed, len(specs), len(errs))
	}
	for i, v := range results {
		if v != 0 && v != i+1 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}

// TestProgressConservation drives one shared Progress from several
// overlapping RunChecked invocations and asserts, on every concurrent
// snapshot, that no counter is negative and the conservation law
// Enqueued == Queued + Running + Done + Failed holds.
func TestProgressConservation(t *testing.T) {
	p := &Progress{}
	stop := make(chan struct{})
	var bad sync.Map
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Snapshot()
			if s.Queued < 0 || s.Running < 0 || s.Done < 0 || s.Failed < 0 {
				bad.Store(fmt.Sprintf("negative counter: %+v", s), true)
			}
			if s.Enqueued != s.Queued+s.Running+s.Done+s.Failed {
				bad.Store(fmt.Sprintf("conservation violated: %+v", s), true)
			}
		}
	}()

	var suites sync.WaitGroup
	for suite := 0; suite < 4; suite++ {
		suites.Add(1)
		go func(suite int) {
			defer suites.Done()
			_, _ = RunChecked(Config{Jobs: 3, Progress: p}, specN(60), func(i int, s Spec) int {
				if (i+suite)%7 == 0 {
					panic("planned failure")
				}
				return i
			})
		}(suite)
	}
	suites.Wait()
	close(stop)
	watcher.Wait()

	bad.Range(func(k, _ any) bool {
		t.Error(k)
		return true
	})
	snap := p.Snapshot()
	if snap.Enqueued != 4*60 || snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("final snapshot %+v", snap)
	}
	if snap.Done+snap.Failed != 4*60 {
		t.Fatalf("final snapshot loses jobs: %+v", snap)
	}
}

func TestJobTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	specs := specN(3)
	results, errs := RunChecked(Config{Jobs: 3, JobTimeout: 20 * time.Millisecond}, specs, func(i int, s Spec) int {
		if i == 1 {
			<-block // exceeds the deadline
		}
		return i + 100
	})
	if len(errs) != 1 || errs[0].Index != 1 || !errs[0].Timeout {
		t.Fatalf("errs = %v", errs)
	}
	if errs[0].Reason() != "timeout" {
		t.Fatalf("Reason() = %q", errs[0].Reason())
	}
	if results[0] != 100 || results[2] != 102 {
		t.Fatalf("surviving cells lost: %v", results)
	}
}

func TestSuiteDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	block := make(chan struct{})
	defer close(block)
	_, errs := RunChecked(Config{Jobs: 1, Ctx: ctx}, specN(2), func(i int, s Spec) int {
		<-block
		return 0
	})
	if len(errs) != 2 {
		t.Fatalf("errs = %v", errs)
	}
	// Job 0 was abandoned at the deadline; job 1 never started.
	for _, e := range errs {
		if !e.Canceled {
			t.Fatalf("job %d: %v", e.Index, e)
		}
	}
	if !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("deadline not propagated: %v", errs[0].Err)
	}
}

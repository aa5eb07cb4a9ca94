package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSharedBudgetBoundsConcurrency runs several pools concurrently on one
// shared budget and asserts their combined in-flight job count never
// exceeds the budget cap — the property the service layer relies on to
// bound total simulation parallelism across sweeps, suites and ad-hoc jobs.
func TestSharedBudgetBoundsConcurrency(t *testing.T) {
	const cap = 2
	b := NewBudget(cap)
	var inFlight, peak atomic.Int64
	job := func(ctx context.Context, i int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for pool := 0; pool < 3; pool++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunJobsOn(context.Background(), 8, b, job); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Errorf("peak concurrency %d exceeded shared budget cap %d", p, cap)
	}
	if got := b.InUse(); got != 0 {
		t.Errorf("budget InUse = %d after drain, want 0", got)
	}
	if got := b.Waiting(); got != 0 {
		t.Errorf("budget Waiting = %d after drain, want 0", got)
	}
}

// TestBudgetAcquireHonorsCancel pins that a blocked Acquire returns when
// the context dies instead of waiting for a slot forever.
func TestBudgetAcquireHonorsCancel(t *testing.T) {
	b := NewBudget(1)
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Acquire(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Acquire succeeded on a full budget with a dead context")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not observe cancellation")
	}
	b.Release()
	if got := b.InUse(); got != 0 {
		t.Errorf("InUse = %d, want 0", got)
	}
}

// TestBudgetAcquireCancellation pins the slot-release guarantee the service
// layer's per-job deadlines rely on: Acquires blocked on a full budget
// return promptly when its context is cancelled, drains the
// waiting gauge, and leaks no slots — the full capacity is reacquirable
// afterwards. Run under -race this also exercises the waiter accounting.
func TestBudgetAcquireCancellation(t *testing.T) {
	const cap = 3
	b := NewBudget(cap)
	for i := 0; i < cap; i++ {
		if err := b.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Two blocked Acquires, each with its own cancellable context.
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	res1 := make(chan error, 1)
	res2 := make(chan error, 1)
	go func() { res1 <- b.Acquire(ctx1) }()
	go func() { res2 <- b.Acquire(ctx2) }()

	// Wait until both are visibly queued, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for b.Waiting() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never queued: Waiting = %d", b.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	cancel2()
	for _, ch := range []chan error{res1, res2} {
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled acquire returned err=%v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled acquire did not return promptly")
		}
	}
	if w := b.Waiting(); w != 0 {
		t.Fatalf("Waiting = %d after cancellation, want 0", w)
	}

	// No slots leaked: release the original holders and reacquire the full
	// capacity.
	for i := 0; i < cap; i++ {
		b.Release()
	}
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d after release, want 0", got)
	}
	for i := 0; i < cap; i++ {
		if err := b.Acquire(context.Background()); err != nil {
			t.Fatalf("Acquire %d of %d after cancellation: %v", i+1, cap, err)
		}
	}
	for i := 0; i < cap; i++ {
		b.Release()
	}
}

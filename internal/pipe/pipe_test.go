package pipe

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back to base,
// failing after a generous deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// runWithin runs Run on another goroutine and fails the test if it has
// not returned within the deadline, so a shutdown bug reads as a failure
// instead of a hung test binary.
func runWithin(t *testing.T, a, b *int, fill func(*int) bool, drain func(*int) error) error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- Run(a, b, fill, drain) }()
	select {
	case err := <-res:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// counter returns a fill that numbers rounds 1, 2, 3, ... and reports
// the round numbered last as the final one (never, when last is 0).
func counter(fills *atomic.Int32, last int32) func(*int) bool {
	return func(r *int) bool {
		n := fills.Add(1)
		*r = int(n)
		return n == last
	}
}

func TestRunDrainsLastRound(t *testing.T) {
	var fills atomic.Int32
	var got []int
	err := runWithin(t, new(int), new(int), counter(&fills, 5), func(r *int) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if want := []int{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v (every round, the last included, in fill order)", got, want)
	}
	if n := fills.Load(); n != 5 {
		t.Fatalf("fill called %d times after the last round, want 5", n)
	}
}

func TestRunDrainErrorStopsProducer(t *testing.T) {
	var fills atomic.Int32
	stop := errors.New("sink failed")
	var drained []int
	err := runWithin(t, new(int), new(int), counter(&fills, 0), func(r *int) error {
		drained = append(drained, *r)
		if *r == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("Run = %v, want %v", err, stop)
	}
	if want := []int{1, 2, 3}; !slices.Equal(drained, want) {
		t.Fatalf("drained %v, want %v", drained, want)
	}
	// Run returns only after the producer exited: no fill runs later.
	n := fills.Load()
	if n < 3 || n > 4 {
		t.Fatalf("fill called %d times, want 3 or 4 (two rounds in flight)", n)
	}
	time.Sleep(10 * time.Millisecond)
	if m := fills.Load(); m != n {
		t.Fatalf("fill ran after Run returned: %d calls, then %d", n, m)
	}
}

func TestRunLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	stop := errors.New("stop")
	for i := 0; i < 50; i++ {
		var fills atomic.Int32
		last := int32(i%7 + 1)
		failAt := i % 5 // 0: drain never fails
		runWithin(t, new(int), new(int), counter(&fills, last), func(r *int) error {
			if *r == failAt {
				return stop
			}
			return nil
		})
	}
	waitGoroutines(t, base)
}

// TestRunQuitUnblocksProducer: with both rounds out (one in drain, one
// filled and queued) the producer waits for a free round; a drain error
// must release it through quit rather than leave Run waiting on it.
func TestRunQuitUnblocksProducer(t *testing.T) {
	base := runtime.NumGoroutine()
	var fills atomic.Int32
	second := make(chan struct{})
	fill := func(r *int) bool {
		n := fills.Add(1)
		*r = int(n)
		if n == 2 {
			close(second)
		}
		return false
	}
	stop := errors.New("stop")
	err := runWithin(t, new(int), new(int), fill, func(r *int) error {
		<-second // the producer now holds no free round
		time.Sleep(5 * time.Millisecond)
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("Run = %v, want %v", err, stop)
	}
	if n := fills.Load(); n != 2 {
		t.Fatalf("fill called %d times, want 2 (the ring holds two rounds)", n)
	}
	waitGoroutines(t, base)
}

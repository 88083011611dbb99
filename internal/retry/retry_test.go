package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"time"
)

// fakeClock records requested sleeps without waiting.
type fakeClock struct{ slept []time.Duration }

func (f *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.slept = append(f.slept, d)
	return nil
}

func testPolicy(clock *fakeClock) Policy {
	p := Default()
	p.Sleep = clock.sleep
	p.Rand = rand.New(rand.NewSource(7))
	return p
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock)
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return syscall.ECONNREFUSED
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(clock.slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(clock.slept))
	}
	// Backoff grows: the second delay derives from a doubled base, and
	// jitter only ever shrinks a delay below its ceiling.
	if clock.slept[0] > p.BaseDelay {
		t.Fatalf("first delay %v exceeds base %v", clock.slept[0], p.BaseDelay)
	}
	if clock.slept[1] > p.MaxDelay {
		t.Fatalf("second delay %v exceeds cap %v", clock.slept[1], p.MaxDelay)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock)
	perm := errors.New("checksum mismatch")
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) {
		t.Fatalf("Do = %v, want %v", err, perm)
	}
	if calls != 1 || len(clock.slept) != 0 {
		t.Fatalf("calls=%d slept=%d; permanent errors must not retry", calls, len(clock.slept))
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock)
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return syscall.EIO
	})
	if calls != p.MaxAttempts {
		t.Fatalf("calls = %d, want %d", calls, p.MaxAttempts)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("exhaustion error %v does not unwrap to EIO", err)
	}
}

func TestDoHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Default()
	p.Sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	calls := 0
	err := p.Do(ctx, func() error {
		calls++
		return syscall.EAGAIN
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled during first backoff)", calls)
	}
}

func TestMarkTransient(t *testing.T) {
	base := errors.New("manifest torn mid-publish")
	if Transient(base) {
		t.Fatal("plain error classified transient")
	}
	marked := MarkTransient(base)
	if !Transient(marked) {
		t.Fatal("MarkTransient not classified transient")
	}
	if !errors.Is(marked, base) {
		t.Fatal("MarkTransient broke the unwrap chain")
	}
	wrapped := fmt.Errorf("refresh: %w", marked)
	if !Transient(wrapped) {
		t.Fatal("wrapping hid the transient mark")
	}
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) != nil")
	}
}

func TestTransientClassification(t *testing.T) {
	for _, errno := range []syscall.Errno{
		syscall.EINTR, syscall.EAGAIN, syscall.ECONNREFUSED,
		syscall.ECONNRESET, syscall.ETIMEDOUT, syscall.EIO,
	} {
		if !Transient(fmt.Errorf("op: %w", errno)) {
			t.Fatalf("%v not classified transient", errno)
		}
	}
	for _, err := range []error{
		nil,
		syscall.ENOENT,
		errors.New("bad magic"),
	} {
		if Transient(err) {
			t.Fatalf("%v classified transient", err)
		}
	}
	if !Transient(timeoutErr{}) {
		t.Fatal("net-style timeout not classified transient")
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string { return "deadline exceeded" }
func (timeoutErr) Timeout() bool { return true }

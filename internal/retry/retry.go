// Package retry implements context-aware retries with jittered exponential
// backoff for transient I/O failures. The artifact lifecycle crosses
// boundaries where a failure is usually a race rather than a fault — a
// manifest read racing a publisher's rename, an EINTR out of a slow disk —
// and the model registry's Open, Refresh and Load all retry through one
// Policy: classify, back off with decorrelated jitter, respect the context,
// and surface the last error once attempts are exhausted.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"time"
)

// Policy describes a backoff schedule. The zero Policy is not useful; use
// Default() or construct explicitly.
type Policy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff between any two attempts.
	MaxDelay time.Duration
	// Multiplier grows the backoff between attempts (2 if <= 1 is given).
	Multiplier float64
	// Jitter in [0,1] scales each delay by a uniform factor in
	// [1-Jitter, 1], decorrelating retry storms across processes.
	Jitter float64

	// Sleep substitutes for a real timer in tests. Nil means sleep on the
	// clock, honoring ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error

	// Rand supplies jitter randomness; nil uses the global source. Tests
	// inject a seeded source for reproducible schedules.
	Rand *rand.Rand
}

// Default returns the policy used by the registry and serving layers:
// 4 attempts spread over roughly half a second of jittered backoff — long
// enough to outlive a rename or accept-queue race, short enough that an
// HTTP handler retrying under it stays comfortably interactive.
func Default() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// Do runs op until it succeeds, returns a non-transient error, exhausts
// MaxAttempts, or ctx is done. The returned error is the last error from op
// (wrapped with the attempt count when attempts were exhausted), or the
// context error if cancellation interrupted the wait.
func (p Policy) Do(ctx context.Context, op func() error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	delay := p.BaseDelay
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if !Transient(err) || attempt >= attempts {
			break
		}
		d := delay
		if p.MaxDelay > 0 && d > p.MaxDelay {
			d = p.MaxDelay
		}
		if p.Jitter > 0 && d > 0 {
			f := p.rand()
			d = time.Duration(float64(d) * (1 - p.Jitter*f))
		}
		if serr := p.sleep(ctx, d); serr != nil {
			return serr
		}
		delay = time.Duration(float64(delay) * mult)
	}
	if Transient(err) {
		return fmt.Errorf("retry: gave up after %d attempts: %w", attempts, err)
	}
	return err
}

func (p Policy) rand() float64 {
	if p.Rand != nil {
		return p.Rand.Float64()
	}
	return rand.Float64()
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transientError wraps an error to force Transient(err) == true.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// MarkTransient wraps err so Transient reports it retryable regardless of
// its underlying type. Callers use it when domain knowledge (a torn
// manifest mid-publish, a connection refused during warm-up) says the
// condition is expected to clear.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Transient reports whether err looks like a condition that may clear on
// its own: interrupted or would-block syscalls, connection-level failures
// during server churn, timeouts, and generic I/O errors — plus anything
// explicitly wrapped with MarkTransient. Structural errors (bad checksum,
// parse failure, ENOENT) are not transient: retrying cannot fix them.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.EINTR,
		syscall.EAGAIN,
		syscall.ECONNREFUSED,
		syscall.ECONNRESET,
		syscall.ETIMEDOUT,
		syscall.EIO,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	// net/http timeouts implement net.Error; avoid importing net just for
	// the interface by matching the method set structurally.
	var nerr interface{ Timeout() bool }
	if errors.As(err, &nerr) && nerr.Timeout() {
		return true
	}
	return false
}

package serve

import (
	"fmt"
	"time"
)

// RetryPolicy bounds how job attempts that ran out of their JobDeadline
// are retried.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try
	// (0 = fail on the first expired deadline).
	MaxRetries int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = uncapped).
	MaxDelay time.Duration
}

// DefaultRetryPolicy: two retries at 100ms/200ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 2, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// Backoff returns the delay before retry number retry (1-based):
// BaseDelay doubled per step, saturating at MaxDelay.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

func (p RetryPolicy) validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("serve: retry policy: max retries must be non-negative, got %d", p.MaxRetries)
	}
	if p.BaseDelay < 0 || p.MaxDelay < 0 {
		return fmt.Errorf("serve: retry policy: delays must be non-negative")
	}
	return nil
}

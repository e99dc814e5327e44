package collector

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryDelayEqualJitterBounds pins the equal-jitter contract: every
// draw stays inside [backoff/2, backoff], and the upper half actually
// varies — a constant delay would put every knocked-back client on the
// same retry clock.
func TestRetryDelayEqualJitterBounds(t *testing.T) {
	for _, backoff := range []time.Duration{
		2 * time.Millisecond, 100 * time.Millisecond, 3200 * time.Millisecond,
	} {
		lo, hi := backoff/2, backoff
		seen := map[time.Duration]bool{}
		for i := 0; i < 256; i++ {
			d := retryDelay(backoff)
			if d < lo || d > hi {
				t.Fatalf("retryDelay(%v) = %v, outside [%v, %v]", backoff, d, lo, hi)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Fatalf("retryDelay(%v) never jittered: always %v", backoff, retryDelay(backoff))
		}
	}
	// Degenerate windows pass through untouched.
	if d := retryDelay(0); d != 0 {
		t.Fatalf("retryDelay(0) = %v", d)
	}
	if d := retryDelay(1); d != 1 {
		t.Fatalf("retryDelay(1) = %v", d)
	}
}

// zeros reads zero bytes without end.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestClientRefusesOverCapBodyBeforeSending gives a retrying Client a
// body one byte over MaxBodyBytes, which every tier refuses: the Client
// returns the cap error, and the server sees no request.
func TestClientRefusesOverCapBodyBeforeSending(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		requests.Add(1)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.MaxRetries = 3
	_, err := c.SubmitReportStream(context.Background(), io.LimitReader(zeros{}, MaxBodyBytes+1))
	if !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("over-cap body answered %v, want %v", err, errBodyTooLarge)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("server saw %d requests", n)
	}
}

package collector

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand/v2"
	"net"
	"net/http"
	"strings"
	"time"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/trace"
)

// Client talks to a collector service (or a fleet supervisor, which
// speaks the same protocol). It speaks the same wire formats the CLI
// pipeline writes to disk: DPA2 binary blobs for aggregate shards
// and header-plus-NDJSON streams for report shards.
type Client struct {
	// BaseURL is the collector root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// AuthToken, when non-empty, is sent as a bearer token in the
	// Authorization header of every request — the shared secret of a
	// deployment running with --auth-token.
	AuthToken string
	// MaxRetries bounds how many times a request is retried after a
	// transient failure — a connection error or a 5xx status. 4xx
	// refusals (scheme conflicts, bad shards) never retry. Zero disables
	// retrying. Requests with a body are buffered in memory when
	// retrying is enabled so every attempt replays identical bytes, and
	// one over MaxBodyBytes is refused without being sent.
	MaxRetries int
	// RetryBackoff scales the delay before the first retry; it doubles
	// per attempt, with equal jitter (a uniform draw from the upper half
	// of each doubled window) so a burst of clients knocked back by the
	// same collector restart does not retry in lockstep. Defaults to
	// 100ms.
	RetryBackoff time.Duration
}

// StatusError is the error for a completed HTTP exchange with a non-2xx
// status: the server understood the request and refused it. Transport
// failures (connection refused, timeouts) are returned as-is, so callers
// can tell "the collector said no" from "the collector is unreachable"
// with errors.As.
type StatusError struct {
	// StatusCode is the HTTP status the server answered with.
	StatusCode int
	// Method and Path identify the refused request.
	Method, Path string
	// Message is the server's error body, when it sent one.
	Message string
	// SubmissionStateUnknown is set when the server marked the refusal
	// with the X-Dpspatial-Submission-State header: the submission may
	// have merged despite the error, so only a same-ID retry is safe.
	SubmissionStateUnknown bool
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("collector: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.StatusCode)
	}
	return fmt.Sprintf("collector: %s %s: HTTP %d", e.Method, e.Path, e.StatusCode)
}

// IsTransient reports whether the refusal is worth retrying: 5xx means
// the server (or a member behind a supervisor) failed, not that the
// submission was invalid.
func (e *StatusError) IsTransient() bool { return e.StatusCode >= 500 }

// NewClient returns a client for the collector at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, header http.Header, out any) error {
	// Propagate W3C trace context. A server-side caller (the supervisor
	// forwarding a submission) already carries a span or remote context;
	// a bare client mints a fresh one HERE, outside the retry loop, so
	// every retry of one logical request shares one trace ID and the
	// whole distributed exchange is attributable end to end.
	if _, ok := trace.Outgoing(ctx); !ok {
		ctx = trace.ContextWithRemote(ctx, trace.NewSpanContext())
	}
	var bodyBytes []byte
	if body != nil && c.MaxRetries > 0 {
		// Buffer so retries replay the exact bytes, reading no further
		// than one byte past the cap every tier enforces.
		b, err := io.ReadAll(io.LimitReader(body, MaxBodyBytes+1))
		if err != nil {
			return err
		}
		if len(b) > MaxBodyBytes {
			return fmt.Errorf("collector: %s %s: %w", method, path, errBodyTooLarge)
		}
		bodyBytes, body = b, nil
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		rd := body
		if bodyBytes != nil {
			rd = bytes.NewReader(bodyBytes)
		}
		err := c.doOnce(ctx, method, path, contentType, rd, header, out)
		if err == nil || attempt >= c.MaxRetries || !isTransient(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(retryDelay(backoff)):
		}
		backoff *= 2
	}
}

// errBodyTooLarge refuses a body over MaxBodyBytes before it is sent.
var errBodyTooLarge = fmt.Errorf("body over the %d-byte request cap", MaxBodyBytes)

// retryDelay jitters one backoff step with the equal-jitter scheme:
// half the window deterministic, half uniform — sleep in
// [backoff/2, backoff]. Keeping the deterministic half preserves the
// exponential knock-back between attempts while decorrelating the
// thundering herd a recovering server would otherwise face.
func retryDelay(backoff time.Duration) time.Duration {
	if backoff <= 1 {
		return backoff
	}
	half := backoff / 2
	return half + time.Duration(mathrand.Int64N(int64(half)+1))
}

// transportError marks a failure where no HTTP response arrived at all
// (connection refused, reset, timeout) — the only non-status errors that
// are safe to retry. A decode error after a 200 is NOT retryable: the
// server already merged the shard, and replaying it would double-count.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransient classifies an error from doOnce as retryable: transport
// failures (connection refused, resets) and 5xx statuses are. A
// response-phase transport failure leaves the server's merge state
// unknown — which is why every submission carries an idempotency ID
// that the retry replays, so a merged-but-unacked shard answers with
// the original ack instead of merging twice. 4xx refusals and local
// encoding errors are not retried.
func isTransient(err error) bool {
	if se, ok := err.(*StatusError); ok {
		return se.IsTransient()
	}
	_, ok := err.(*transportError)
	return ok
}

// RequestNotSent reports whether a Client error provably occurred
// before the request reached the server — a dial-phase failure — so
// re-sending it elsewhere cannot duplicate work even without the
// idempotency log. Anything past dial (reset, timeout, truncated
// response) leaves the server's state unknown.
func RequestNotSent(err error) bool {
	var te *transportError
	if !errors.As(err, &te) {
		return false
	}
	var op *net.OpError
	return errors.As(te.err, &op) && op.Op == "dial"
}

// NewSubmissionID draws a fresh idempotency ID for one logical shard
// submission. Submit helpers call it implicitly; use the *WithID
// variants to retry a submission under its original ID across client
// instances.
func NewSubmissionID() string {
	var b [16]byte
	rand.Read(b[:]) // never returns an error: it crashes the program instead
	return hex.EncodeToString(b[:])
}

func (c *Client) doOnce(ctx context.Context, method, path, contentType string, body io.Reader, header http.Header, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.AuthToken)
	}
	if sc, ok := trace.Outgoing(ctx); ok {
		req.Header.Set(trace.TraceparentHeader, sc.Traceparent())
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return &transportError{err: err}
	}
	defer func() {
		// Drain so the keep-alive connection returns to the pool.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{
			StatusCode: resp.StatusCode, Method: method, Path: path,
			SubmissionStateUnknown: resp.Header.Get(SubmissionStateHeader) == SubmissionStateUnknown,
		}
		var e errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			se.Message = e.Error
		}
		return se
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		*raw = b
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil, nil)
}

// SubmitAggregate ships one aggregate shard as a DPA2 blob. A non-nil
// pipeline travels in the X-Dpspatial-Pipeline header so a collector
// started without a mechanism can adopt one.
func (c *Client) SubmitAggregate(ctx context.Context, shard *fo.Aggregate, p *Pipeline) (*SubmitResponse, error) {
	blob, err := shard.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return c.SubmitAggregateBlob(ctx, blob, p)
}

// SubmitAggregateBlob ships an already-encoded DPA2 blob verbatim
// under a fresh submission ID.
func (c *Client) SubmitAggregateBlob(ctx context.Context, blob []byte, p *Pipeline) (*SubmitResponse, error) {
	return c.SubmitAggregateBlobWithID(ctx, blob, p, NewSubmissionID())
}

// SubmitAggregateBlobWithID ships a blob under an explicit submission
// ID — the replay key a server's idempotency log dedups on.
func (c *Client) SubmitAggregateBlobWithID(ctx context.Context, blob []byte, p *Pipeline, id string) (*SubmitResponse, error) {
	header := http.Header{}
	if p != nil {
		hdr, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		header.Set(PipelineHeader, string(hdr))
	}
	if id != "" {
		header.Set(SubmissionIDHeader, id)
	}
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/aggregate", "application/octet-stream",
		bytes.NewReader(blob), header, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitReportStream ships a report shard — a stream in the CLI's
// reports framing (Pipeline header line, then NDJSON reports), or bare
// report lines if the collector is already locked to a scheme. The whole
// stream merges as one shard under a fresh submission ID.
func (c *Client) SubmitReportStream(ctx context.Context, stream io.Reader) (*SubmitResponse, error) {
	return c.SubmitReportStreamWithID(ctx, stream, NewSubmissionID())
}

// SubmitReportStreamWithID ships a report stream under an explicit
// submission ID.
func (c *Client) SubmitReportStreamWithID(ctx context.Context, stream io.Reader, id string) (*SubmitResponse, error) {
	header := http.Header{}
	if id != "" {
		header.Set(SubmissionIDHeader, id)
	}
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/report", "application/x-ndjson", stream, header, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitReports encodes reports in the wire framing (with the pipeline
// header when non-nil) and ships them as one shard.
func (c *Client) SubmitReports(ctx context.Context, p *Pipeline, reports []fo.Report) (*SubmitResponse, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if p != nil {
		hdr := *p
		hdr.Format = ReportsFormat
		if err := enc.Encode(&hdr); err != nil {
			return nil, err
		}
	}
	for i := range reports {
		if err := enc.Encode(&reports[i]); err != nil {
			return nil, err
		}
	}
	return c.SubmitReportStream(ctx, &buf)
}

// Estimate fetches the collector's current histogram, which reflects
// every shard merged so far.
func (c *Client) Estimate(ctx context.Context) (*grid.Hist2D, *EstimateResponse, error) {
	var resp EstimateResponse
	if err := c.do(ctx, http.MethodGet, "/v1/estimate", "", nil, nil, &resp); err != nil {
		return nil, nil, err
	}
	h, err := resp.Histogram()
	if err != nil {
		return nil, nil, err
	}
	return h, &resp, nil
}

// FetchAggregate downloads the merged canonical aggregate — the chaining
// primitive for hierarchical collectors: a downstream collector can
// submit the blob verbatim to an upstream one, and the fleet supervisor
// pulls each member's blob through it on the merge cadence.
func (c *Client) FetchAggregate(ctx context.Context) (*fo.Aggregate, error) {
	blob, err := c.FetchAggregateBlob(ctx)
	if err != nil {
		return nil, err
	}
	agg := &fo.Aggregate{}
	if err := agg.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return agg, nil
}

// FetchAggregateBlob downloads the merged canonical aggregate as raw
// DPA2 bytes, without decoding.
func (c *Client) FetchAggregateBlob(ctx context.Context) ([]byte, error) {
	var blob []byte
	if err := c.do(ctx, http.MethodGet, "/v1/aggregate", "", nil, nil, &blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// Stats fetches the collector's counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var stats Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, nil, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

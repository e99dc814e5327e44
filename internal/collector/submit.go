package collector

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dpspatial/internal/fo"
	"dpspatial/internal/trace"
)

// The write path both serving tiers share. A collector merges a
// submission into its own aggregate and a supervisor forwards it to a
// member; everything around that one step is the same, so the Engine
// owns it. It reads the submission ID, minting one when the client sent
// none, and echoes it on every answer. It answers a replayed ID from the
// tier's ack log before reading any of the body. It caps the body,
// parses it inside the <tier>.body.read span — a report stream up to
// its head line, an aggregate blob whole, then its X-Dpspatial-Pipeline
// header — hands the parsed Submission to the tier's commit, and writes
// the ack or the refusal.

// Submission is one submission as the Engine parsed it, handed to the
// tier's commit.
type Submission struct {
	// Kind is the framing: a report stream or an aggregate blob.
	Kind ShardKind
	// ID is the idempotency ID: the client's, or one the Engine minted.
	ID string
	// Pipeline is the submission's metadata — a report stream's header
	// line, or an aggregate's X-Dpspatial-Pipeline header — nil when it
	// carries none.
	Pipeline *Pipeline
	// Shard is an aggregate submission's decoded blob; nil for a report
	// stream, whose reports the commit counts with ReadReports.
	Shard *fo.Aggregate

	readSpan *trace.Span   // the open <tier>.body.read span
	raw      []byte        // the body read so far: a stream's head line, or the whole blob
	first    *fo.Report    // a stream's bare first report, when it has no header line
	rest     *bufio.Reader // the unread rest of a report stream
}

// ReadReports counts a report stream into shard — its bare first report,
// if the stream opened with one, then every line after the head — and
// ends the body-read span. Its errors are the submitter's: 400. A body
// over the cap is refused as the head-line read and Body refuse it.
func (s *Submission) ReadReports(shard *fo.Aggregate) error {
	if s.first != nil {
		if err := shard.Add(*s.first); err != nil {
			return badRequest(err)
		}
	}
	if err := ReadReports(s.rest, shard); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return badRequest(fmt.Errorf("reading body: %v", tooLarge))
		}
		return badRequest(err)
	}
	s.readSpan.SetAttr(trace.Float("reports", shard.N))
	s.readSpan.End()
	return nil
}

// Body returns the submission's bytes as the client sent them — the
// blob, or a report stream's head line and the rest of the stream read
// to its end — and ends the body-read span.
func (s *Submission) Body() ([]byte, error) {
	if s.rest == nil {
		return s.raw, nil
	}
	buf := bytes.NewBuffer(s.raw) // the rest lands after the head line, copied once
	if _, err := buf.ReadFrom(s.rest); err != nil {
		return nil, badRequest(fmt.Errorf("reading body: %v", err))
	}
	s.readSpan.SetAttr(trace.Int("bodyBytes", int64(buf.Len())))
	s.readSpan.End()
	return buf.Bytes(), nil
}

// Refusal is a submission error that carries its own answer: Status, and
// with Unknown the X-Dpspatial-Submission-State: unknown mark, for a
// submission that may still have merged (a durable append that may have
// partly persisted, a member's answer lost after the send) so that only
// a retry under the same ID is safe. Any other commit error means the
// submission does not fit the tier's pipeline: 409.
type Refusal struct {
	Status  int
	Unknown bool
	Err     error
}

func (r *Refusal) Error() string { return r.Err.Error() }
func (r *Refusal) Unwrap() error { return r.Err }

// badRequest marks err as the submitter's fault: 400.
func badRequest(err error) error {
	return &Refusal{Status: http.StatusBadRequest, Err: err}
}

// submit runs one POST /v1/report or /v1/aggregate through the shell.
func (e *Engine) submit(w http.ResponseWriter, r *http.Request, kind ShardKind) {
	id := r.Header.Get(SubmissionIDHeader)
	if id == "" {
		id = NewSubmissionID()
	}
	w.Header().Set(SubmissionIDHeader, id)
	ctx := r.Context()
	span := trace.SpanFrom(ctx)
	span.SetAttr(trace.String("submissionId", id), trace.String("shardKind", kind.String()))
	// A replay costs a header, not a 64 MiB upload.
	if prev, ok := e.cfg.Replay(ctx, id); ok {
		writeJSON(w, http.StatusOK, &prev)
		return
	}
	// A body declared over the cap is refused unread; a chunked one is
	// refused by MaxBytesReader once it streams past the cap.
	if r.ContentLength > MaxBodyBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", &http.MaxBytesError{Limit: MaxBodyBytes}))
		return
	}
	sub := &Submission{Kind: kind, ID: id, readSpan: span.Child(e.cfg.Tier + ".body.read")}
	// End is idempotent: the parse or the commit ends the span once the
	// body is read, and this closes it on every early refusal.
	defer sub.readSpan.End()
	err := e.readSubmission(sub, http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.Header)
	var resp SubmitResponse
	if err == nil {
		resp, err = e.cfg.Commit(ctx, sub)
	}
	if err != nil {
		status := http.StatusConflict
		var rf *Refusal
		if errors.As(err, &rf) {
			status = rf.Status
			if rf.Unknown {
				w.Header().Set(SubmissionStateHeader, SubmissionStateUnknown)
			}
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, &resp)
}

// readSubmission reads sub's body: a report stream up to the end of its
// head line, which it parses, or an aggregate blob whole, which it
// decodes before parsing the pipeline header.
func (e *Engine) readSubmission(sub *Submission, body io.Reader, header http.Header) error {
	if sub.Kind == ShardReport {
		sub.rest = bufio.NewReader(body)
		var err error
		sub.raw, err = sub.rest.ReadBytes('\n') // a line of any length; EOF ends a one-line stream
		if err != nil && err != io.EOF {
			return badRequest(fmt.Errorf("reading body: %v", err))
		}
		if sub.Pipeline, sub.first, err = ParseStreamHead(sub.raw); err != nil {
			return badRequest(err)
		}
		return nil
	}
	blob, err := io.ReadAll(body)
	if err != nil {
		return badRequest(fmt.Errorf("reading body: %v", err))
	}
	sub.raw, sub.Shard = blob, &fo.Aggregate{}
	if err := sub.Shard.UnmarshalBinary(blob); err != nil {
		return badRequest(err)
	}
	sub.readSpan.SetAttr(trace.Int("bodyBytes", int64(len(blob))), trace.Float("reports", sub.Shard.N))
	sub.readSpan.End()
	if hdr := header.Get(PipelineHeader); hdr != "" {
		sub.Pipeline = &Pipeline{}
		if err := json.Unmarshal([]byte(hdr), sub.Pipeline); err != nil {
			return badRequest(fmt.Errorf("bad %s header: %v", PipelineHeader, err))
		}
	}
	return nil
}

// handleAggregate takes an aggregate blob submission (POST) or serves
// the tier's merged aggregate as a DPA2 blob (GET), with its pin in the
// X-Dpspatial-Pipeline header: the chaining primitive that stacks
// collectors under supervisors and supervisors under supervisors.
func (e *Engine) handleAggregate(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		e.submit(w, r, ShardAggregate)
	case http.MethodGet:
		_, pin := e.Identity()
		if pin == nil {
			writeError(w, http.StatusConflict, e.unadopted())
			return
		}
		blob, err := e.cfg.Aggregate(r.Context())
		if err != nil {
			writeError(w, e.errorStatus(err), err)
			return
		}
		hdr, _ := json.Marshal(pin)
		w.Header().Set(PipelineHeader, string(hdr))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(blob)
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
	}
}

package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/fleet"
	"dpspatial/internal/trace"
)

// parityTier is one serving tier under TestSubmitPathParity.
type parityTier struct {
	name, url, readSpan string
}

// tierAnswer is one tier's answer to a raw submission.
type tierAnswer struct {
	status  int
	errText string
	echoed  string // X-Dpspatial-Submission-Id
	ack     collector.SubmitResponse
	trace   *trace.TraceData
}

// repeatReader reads fill over and over, without end.
type repeatReader struct {
	fill string
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.fill[r.off:])
		n += c
		r.off = (r.off + c) % len(r.fill)
	}
	return n, nil
}

// TestSubmitPathParity sends the same submissions to an adopt-mode
// collector and to an adopt-mode supervisor in front of one such
// collector. Both tiers run one submit path, so every row must answer
// alike at both: the same status, the same error text on a refusal,
// the submission ID echoed (minted when the request had none), and a
// <tier>.body.read span in each traced submit that reads a body — and
// none in one answered before its body is read.
func TestSubmitPathParity(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	pipeline := damPipeline(mech, 5, 2.0)
	blob, err := accumulateShards(t, mech, 1, 61)[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	misfit, err := accumulateShards(t, newDAM(t, 6, 2.0), 1, 62)[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	streamHead := *pipeline
	streamHead.Format = collector.ReportsFormat
	headJSON, err := json.Marshal(&streamHead)
	if err != nil {
		t.Fatal(err)
	}
	headLine := string(headJSON) + "\n"
	var lines bytes.Buffer
	for _, rep := range collectReports(t, mech, 100, 65) {
		if err := json.NewEncoder(&lines).Encode(&rep); err != nil {
			t.Fatal(err)
		}
	}
	wrongShape := *pipeline
	wrongShape.Shape = []int{7}
	wrongShapeHdr, err := json.Marshal(&wrongShape)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	col, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	member, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := fleet.New(fleet.Config{Members: []string{serve(member)}, Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []parityTier{
		{"collector", serve(col), "collector.body.read"},
		{"supervisor", serve(sup), "fleet.body.read"},
	}
	// Adopt the pipeline at both tiers under the ID the replay row reuses.
	for _, tier := range tiers {
		if _, err := collector.NewClient(tier.url).SubmitAggregateBlobWithID(context.Background(), blob, pipeline, "parity-acked"); err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
	}

	send := func(t *testing.T, tier parityTier, method, path, id, pipelineHdr string, body io.Reader) tierAnswer {
		t.Helper()
		req, err := http.NewRequest(method, tier.url+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(collector.SubmissionIDHeader, id)
		}
		if pipelineHdr != "" {
			req.Header.Set(collector.PipelineHeader, pipelineHdr)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		raw, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		a := tierAnswer{status: res.StatusCode, echoed: res.Header.Get(collector.SubmissionIDHeader)}
		if res.StatusCode == http.StatusOK {
			err = json.Unmarshal(raw, &a.ack)
		} else {
			var e struct{ Error string }
			err = json.Unmarshal(raw, &e)
			a.errText = e.Error
		}
		if err != nil {
			t.Fatalf("%s answered %d with %q: %v", tier.name, res.StatusCode, raw, err)
		}
		a.trace = waitServedTrace(t, tier.url, res.Header.Get(trace.TraceIDHeader))
		return a
	}

	garbage := append([]byte("DPA2"), bytes.Repeat([]byte{0xff}, 12)...)
	minted := regexp.MustCompile(`^[0-9a-f]{32}$`)
	for _, row := range []struct {
		name, method, path, id, pipelineHdr string
		body                                []byte
		// overCap, when set, follows body with collector.MaxBodyBytes
		// bytes of it repeated, read as the request goes out.
		overCap              string
		status               int
		readsBody, duplicate bool
	}{
		{name: "empty stream", method: http.MethodPost, path: "/v1/report", id: "parity-empty",
			status: http.StatusBadRequest, readsBody: true},
		{name: "unparseable first line", method: http.MethodPost, path: "/v1/report", id: "parity-line",
			body: []byte("not json\n"), status: http.StatusBadRequest, readsBody: true},
		{name: "unknown format", method: http.MethodPost, path: "/v1/report", id: "parity-format",
			body: []byte(`{"format":"dpspatial-reports/9"}` + "\n"), status: http.StatusBadRequest, readsBody: true},
		{name: "bad pipeline header", method: http.MethodPost, path: "/v1/aggregate", id: "parity-header",
			pipelineHdr: "{not json", body: blob, status: http.StatusBadRequest, readsBody: true},
		{name: "non-DPA blob", method: http.MethodPost, path: "/v1/aggregate", id: "parity-magic",
			body: []byte("not an aggregate"), status: http.StatusBadRequest, readsBody: true},
		{name: "DPA2 garbage", method: http.MethodPost, path: "/v1/aggregate", id: "parity-garbage",
			body: garbage, status: http.StatusBadRequest, readsBody: true},
		{name: "blob of another mechanism", method: http.MethodPost, path: "/v1/aggregate", id: "parity-misfit",
			body: misfit, status: http.StatusConflict, readsBody: true},
		{name: "header with a wrong shape", method: http.MethodPost, path: "/v1/aggregate", id: "parity-shape",
			pipelineHdr: string(wrongShapeHdr), body: blob, status: http.StatusConflict, readsBody: true},
		{name: "header line, then not json", method: http.MethodPost, path: "/v1/report", id: "parity-report-line",
			body: []byte(headLine + "not json\n"), status: http.StatusBadRequest, readsBody: true},
		{name: "stream over the cap", method: http.MethodPost, path: "/v1/report", id: "parity-over-cap",
			body: []byte(headLine), overCap: lines.String(), status: http.StatusBadRequest, readsBody: true},
		{name: "PUT aggregate", method: http.MethodPut, path: "/v1/aggregate", id: "parity-put",
			body: blob, status: http.StatusMethodNotAllowed},
		{name: "valid without an ID", method: http.MethodPost, path: "/v1/aggregate",
			body: blob, status: http.StatusOK, readsBody: true},
		{name: "replayed ID with a garbage body", method: http.MethodPost, path: "/v1/aggregate", id: "parity-acked",
			body: garbage, status: http.StatusOK, duplicate: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var answers []tierAnswer
			for _, tier := range tiers {
				body := io.Reader(bytes.NewReader(row.body))
				if row.overCap != "" {
					body = io.MultiReader(body, io.LimitReader(&repeatReader{fill: row.overCap}, collector.MaxBodyBytes))
				}
				a := send(t, tier, row.method, row.path, row.id, row.pipelineHdr, body)
				answers = append(answers, a)
				if a.status != row.status {
					t.Fatalf("%s answered %d (%q), want %d", tier.name, a.status, a.errText, row.status)
				}
				switch {
				case row.method != http.MethodPost:
					if a.echoed != "" {
						t.Errorf("%s echoed submission ID %q on a %s", tier.name, a.echoed, row.method)
					}
				case row.id == "":
					if !minted.MatchString(a.echoed) {
						t.Errorf("%s echoed %q for a submission without an ID, want a minted one", tier.name, a.echoed)
					}
				case a.echoed != row.id:
					t.Errorf("%s echoed submission ID %q, want %q", tier.name, a.echoed, row.id)
				}
				if row.status == http.StatusOK && a.ack.Duplicate != row.duplicate {
					t.Errorf("%s acked %+v, want duplicate=%v", tier.name, a.ack, row.duplicate)
				}
				if sp := traceSpan(a.trace, tier.readSpan); (sp != nil) != row.readsBody {
					t.Errorf("%s trace has a %s span: %v, want %v", tier.name, tier.readSpan, sp != nil, row.readsBody)
				} else if sp != nil && sp.ParentSpanID != a.trace.Spans[0].SpanID {
					t.Errorf("%s: %s is not parented on the submit root", tier.name, tier.readSpan)
				}
			}
			if answers[0].errText != answers[1].errText {
				t.Errorf("collector refused with %q, supervisor with %q", answers[0].errText, answers[1].errText)
			}
			if row.id == "" && row.status == http.StatusOK {
				// The minted ID is the key each tier acked under: a replay
				// of it answers from the ack log before the body is read.
				for i, tier := range tiers {
					a := send(t, tier, http.MethodPost, row.path, answers[i].echoed, "", bytes.NewReader(garbage))
					if a.status != http.StatusOK || !a.ack.Duplicate || a.ack.Generation != answers[i].ack.Generation {
						t.Errorf("%s: replaying the minted ID answered %d %+v, want the duplicate of %+v", tier.name, a.status, a.ack, answers[i].ack)
					}
				}
			}
		})
	}
}

// TestDeclaredOversizeRefusedUnread sends, over a raw connection, only
// the headers of a POST whose Content-Length declares one byte over
// collector.MaxBodyBytes, to an adopt-mode collector and to a supervisor
// in front of one, on both submission paths. Each tier refuses it at
// once with the over-cap 400, without waiting for a body byte.
func TestDeclaredOversizeRefusedUnread(t *testing.T) {
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	col, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	member, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := fleet.New(fleet.Config{Members: []string{serve(member)}, Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	// headersOnly sends the request line and headers, and returns the
	// status and error text of the answer.
	headersOnly := func(url, path string) (int, string, error) {
		conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
		if err != nil {
			return 0, "", err
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(3 * time.Second)); err != nil {
			return 0, "", err
		}
		if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n",
			path, conn.RemoteAddr(), collector.MaxBodyBytes+1); err != nil {
			return 0, "", err
		}
		res, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			return 0, "", err
		}
		defer res.Body.Close()
		var e struct{ Error string }
		err = json.NewDecoder(res.Body).Decode(&e)
		return res.StatusCode, e.Error, err
	}
	const want = "reading body: http: request body too large"
	for _, tier := range []struct{ name, url string }{{"collector", serve(col)}, {"supervisor", serve(sup)}} {
		for _, path := range []string{"/v1/report", "/v1/aggregate"} {
			status, text, err := headersOnly(tier.url, path)
			if err != nil {
				t.Fatalf("%s POST %s: no answer before any body byte: %v", tier.name, path, err)
			}
			if status != http.StatusBadRequest || text != want {
				t.Errorf("%s POST %s answered %d %q, want 400 %q", tier.name, path, status, text, want)
			}
		}
	}
}

// TestPreAdoptionParity holds an unadopted adopt-mode collector and an
// unadopted supervisor to one answer: each read, and a submission without
// pipeline metadata, is refused 409 with the same text up to the tier's
// name, and both /healthz bodies carry the same keys. Once an empty shard
// adopted the pipeline at both tiers, each estimate read is refused 409
// with one no-reports text.
func TestPreAdoptionParity(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	col, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	member, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := fleet.New(fleet.Config{Members: []string{serve(member)}, Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct{ name, url string }{{"collector", serve(col)}, {"fleet", serve(sup)}}
	blob, err := accumulateShards(t, mech, 1, 63)[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ask := func(t *testing.T, method, url string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		raw, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, raw
	}
	type request struct {
		method, path string
		body         []byte
	}
	refuseAlike := func(t *testing.T, req request) {
		t.Helper()
		var texts []string
		for _, tier := range tiers {
			status, raw := ask(t, req.method, tier.url+req.path, req.body)
			var e struct{ Error string }
			if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusConflict {
				t.Fatalf("%s: %s %s answered %d %q, want a 409", tier.name, req.method, req.path, status, raw)
			}
			texts = append(texts, strings.Replace(e.Error, tier.name, "<tier>", 1))
		}
		if texts[0] != texts[1] {
			t.Errorf("%s %s: collector refused with %q, supervisor with %q", req.method, req.path, texts[0], texts[1])
		}
	}
	estimateReads := []request{{http.MethodGet, "/v1/estimate", nil}, {http.MethodGet, "/v1/query?type=topk&k=1", nil}}
	for _, req := range append(estimateReads,
		request{http.MethodGet, "/v1/aggregate", nil},
		request{http.MethodPost, "/v1/aggregate", blob}) {
		refuseAlike(t, req)
	}

	var keys [2][]string
	for i, tier := range tiers {
		status, raw := ask(t, http.MethodGet, tier.url+"/healthz", nil)
		var body map[string]any
		if err := json.Unmarshal(raw, &body); err != nil || status != http.StatusOK {
			t.Fatalf("%s /healthz answered %d %q", tier.name, status, raw)
		}
		for k := range body {
			keys[i] = append(keys[i], k)
		}
		sort.Strings(keys[i])
	}
	if !reflect.DeepEqual(keys[0], keys[1]) {
		t.Errorf("/healthz keys: collector %v, supervisor %v", keys[0], keys[1])
	}

	empty, err := mech.NewAggregate().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range tiers {
		if _, err := collector.NewClient(tier.url).SubmitAggregateBlob(context.Background(), empty, damPipeline(mech, 5, 2.0)); err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
	}
	for _, req := range estimateReads {
		refuseAlike(t, req)
	}
}

// TestAdoptedPinTakesShapeFromMechanism holds an adopt-mode collector and
// an adopt-mode supervisor to the shape of the mechanism they adopt.
// Before adoption, a header whose shape the rebuilt mechanism does not
// have is refused 409 with one text at both tiers, and nothing adopts —
// neither tier, nor the supervisor's member. A header without a shape
// adopts, and each tier then serves the mechanism's shape in its pin.
func TestAdoptedPinTakesShapeFromMechanism(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	blob, err := accumulateShards(t, mech, 1, 66)[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	col, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	member, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	memberURL := serve(member)
	sup, err := fleet.New(fleet.Config{Members: []string{memberURL}, Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct{ name, url string }{{"collector", serve(col)}, {"supervisor", serve(sup)}}
	ctx := context.Background()
	// pin fetches a tier's aggregate and returns the pin it serves with
	// it, or the status of the refusal.
	pin := func(t *testing.T, url string) (*collector.Pipeline, int) {
		t.Helper()
		res, err := http.Get(url + "/v1/aggregate")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return nil, res.StatusCode
		}
		var p collector.Pipeline
		if err := json.Unmarshal([]byte(res.Header.Get(collector.PipelineHeader)), &p); err != nil {
			t.Fatal(err)
		}
		return &p, res.StatusCode
	}

	lying := damPipeline(mech, 5, 2.0)
	lying.Shape = []int{7}
	var texts []string
	for _, tier := range tiers {
		_, err := collector.NewClient(tier.url).SubmitAggregateBlob(ctx, blob, lying)
		var se *collector.StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusConflict {
			t.Fatalf("%s: a header claiming shape %v answered %v, want a 409", tier.name, lying.Shape, err)
		}
		texts = append(texts, se.Message)
	}
	if texts[0] != texts[1] {
		t.Errorf("collector refused with %q, supervisor with %q", texts[0], texts[1])
	}
	for _, url := range []string{tiers[0].url, tiers[1].url, memberURL} {
		if p, status := pin(t, url); status != http.StatusConflict {
			t.Fatalf("%s adopted %+v from a refused header", url, p)
		}
	}

	bare := damPipeline(mech, 5, 2.0)
	bare.Shape = nil
	for _, tier := range tiers {
		if _, err := collector.NewClient(tier.url).SubmitAggregateBlob(ctx, blob, bare); err != nil {
			t.Fatalf("%s: a header without a shape: %v", tier.name, err)
		}
		p, status := pin(t, tier.url)
		if status != http.StatusOK {
			t.Fatalf("%s: GET /v1/aggregate answered %d after adoption", tier.name, status)
		}
		if !reflect.DeepEqual(p.Shape, mech.ReportShape()) {
			t.Errorf("%s serves shape %v, want the mechanism's %v", tier.name, p.Shape, mech.ReportShape())
		}
	}
}

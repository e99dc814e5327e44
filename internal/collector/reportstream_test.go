package collector_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/rng"
	"dpspatial/internal/trajectory"
)

// serve sends one request straight through the collector's handler.
func serve(c *collector.Collector, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// refusal returns the error text of a refused request, failing the test
// unless it answered want.
func refusal(t *testing.T, rec *httptest.ResponseRecorder, want int) string {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("answered %d (%s), want %d", rec.Code, strings.TrimSpace(rec.Body.String()), want)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), err)
	}
	return e.Error
}

// accepted decodes the ack of an accepted submission.
func accepted(t *testing.T, rec *httptest.ResponseRecorder) collector.SubmitResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("answered %d (%s), want 200", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var ack collector.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// reportLines renders n reports of mech, drawn over its inputs in turn,
// as NDJSON lines.
func reportLines(t *testing.T, mech fo.Reporter, n int, seed uint64) []string {
	t.Helper()
	r := rng.New(seed)
	lines := make([]string, n)
	for i := range lines {
		rep, err := mech.Report(i%mech.NumInputs(), r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&rep)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b) + "\n"
	}
	return lines
}

// TestReportSubmitAllocations pins the garbage one 200-report POST
// /v1/report leaves: the stream is read through a small buffer and every
// line decodes into one reused value. Garbage per submit drives GC over
// the ack log, which can cost more CPU than the submits themselves.
func TestReportSubmitAllocations(t *testing.T) {
	mech := newDAM(t, 15, 3.5)
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 15, 3.5)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	body := []byte(mustJSONLine(t, durPipeline(mech, 15, 3.5)) + strings.Join(reportLines(t, mech, 200, 5), ""))
	submit := func(req *http.Request) {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("submit answered %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 3; i++ {
		submit(httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body)))
	}
	const submits = 25
	reqs := make([]*http.Request, submits)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		submit(req)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / submits
	t.Logf("one 200-report submit allocates %d bytes", per)
	if per >= 256<<10 {
		t.Fatalf("one 200-report submit allocates %d bytes, want under 256 KiB", per)
	}
}

// TestReportStreamLongLines checks a line longer than any read buffer
// is read whole: a header padded past 64 KiB and a report line padded
// past 8 KiB, with JSON whitespace, count exactly like the plain stream.
func TestReportStreamLongLines(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	hdr := mustJSONLine(t, durPipeline(mech, 5, 2.0))
	lines := reportLines(t, mech, 40, 9)
	plain := hdr + strings.Join(lines, "")
	lines[7] = "{" + strings.Repeat(" \t", 4500) + lines[7][1:]
	padded := "{" + strings.Repeat(" \t\r", 22000) + hdr[1:] + strings.Join(lines, "")
	if len(lines[7]) <= 8<<10 || strings.IndexByte(padded, '\n') <= 64<<10 {
		t.Fatal("padding too short")
	}

	var acks [2]collector.SubmitResponse
	var blobs [2][]byte
	for i, stream := range []string{plain, padded} {
		c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 5, 2.0)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		acks[i] = accepted(t, serve(c, http.MethodPost, "/v1/report", []byte(stream)))
		blobs[i] = serve(c, http.MethodGet, "/v1/aggregate", nil).Body.Bytes()
	}
	if acks[1].Reports != 40 || acks[1].Reports != acks[0].Reports || acks[1].TotalReports != acks[0].TotalReports {
		t.Fatalf("padded stream acked %+v, plain stream %+v", acks[1], acks[0])
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("padded stream merged a different aggregate")
	}
}

// TestReportStreamOddLines checks the answers to report lines that
// decode into nothing, or into more than the wire names: a line without
// "planes" is refused after a valid line, not read as that line again.
// An accepted line that json.Marshal would not write, followed by lines
// it would, counts and merges as the stream of only the latter does.
func TestReportStreamOddLines(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 5, 2.0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	head := mustJSONLine(t, durPipeline(mech, 5, 2.0)) + `{"planes":[[3]]}` + "\n"
	tail := strings.Join(reportLines(t, mech, 30, 13), "")
	merged := func(stream string) (collector.SubmitResponse, []byte) {
		fresh, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 5, 2.0)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fresh.Close)
		ack := accepted(t, serve(fresh, http.MethodPost, "/v1/report", []byte(stream)))
		return ack, serve(fresh, http.MethodGet, "/v1/aggregate", nil).Body.Bytes()
	}
	canonAck, canonBlob := merged(head + `{"planes":[[5]]}` + "\n" + tail)
	for _, tc := range []struct{ line, refusal string }{
		{`{}`, "fo: report has 0 planes, aggregate 1"},
		{`{"planes":null}`, "fo: report has 0 planes, aggregate 1"},
		{`{"Planes":[[5]]}`, ""},
		{`{"planes":[[5]],"weight":7}`, ""},
		{`{"planes": [[5]]}`, ""},
		{`{"planes":[[5]]} `, ""},
		{`{"planes":[[5]]}` + "\r", ""},
	} {
		t.Run(tc.line, func(t *testing.T) {
			before := accepted(t, serve(c, http.MethodPost, "/v1/report", []byte(head)))
			rec := serve(c, http.MethodPost, "/v1/report", []byte(head+tc.line+"\n"))
			if tc.refusal == "" {
				if ack := accepted(t, rec); ack.Reports != 2 || ack.TotalReports != before.TotalReports+2 {
					t.Fatalf("acked %+v after %+v", ack, before)
				}
				if ack, blob := merged(head + tc.line + "\n" + tail); ack.Reports != canonAck.Reports || !bytes.Equal(blob, canonBlob) {
					t.Fatalf("with %d canonical lines after it, acked %g reports (want %g), same aggregate %v",
						strings.Count(tail, "\n"), ack.Reports, canonAck.Reports, bytes.Equal(blob, canonBlob))
				}
				return
			}
			if got := refusal(t, rec, http.StatusBadRequest); got != tc.refusal {
				t.Fatalf("refused with %q, want %q", got, tc.refusal)
			}
			if ack := accepted(t, serve(c, http.MethodPost, "/v1/report", []byte(head))); ack.Generation != before.Generation+1 {
				t.Fatalf("refused stream moved the generation: %d after %d", ack.Generation, before.Generation)
			}
		})
	}
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

// overCap reads head, then collector.MaxBodyBytes bytes of fill repeated,
// then tail: a body over the cap by at least len(head) bytes that no
// buffer of the test holds.
func overCap(head, fill, tail string) io.Reader {
	return io.MultiReader(strings.NewReader(head),
		io.LimitReader(&repeatReader{fill: fill}, collector.MaxBodyBytes), strings.NewReader(tail))
}

// TestMaxBodyBytesRefusesOverLimitBodies sends bodies over
// collector.MaxBodyBytes to both submit endpoints of a durable
// collector: a report stream cut inside its first line, one cut after
// it, and an aggregate blob. Each answers 400 naming the limit, and none
// moves the generation, the report total or the WAL.
func TestMaxBodyBytesRefusesOverLimitBodies(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	hdr := mustJSONLine(t, durPipeline(mech, 4, 2.0))
	lines := reportLines(t, mech, 100, 3)
	_, c, st := startDurable(t, t.TempDir(), collector.Config{Build: durBuild(t)})
	t.Cleanup(c.Close)
	accepted(t, serve(c, http.MethodPost, "/v1/report", []byte(hdr+strings.Join(lines[:5], ""))))
	stats := func() (gen uint64, reports float64, records uint64) {
		var s collector.Stats
		if err := json.Unmarshal(serve(c, http.MethodGet, "/v1/stats", nil).Body.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		return s.Generation, s.Reports, st.Stats().RecordsAppended
	}
	gen, reports, records := stats()

	blob, err := mech.NewAggregate().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		refusal    string
	}{
		{"stream cut inside its first line", "/v1/report",
			overCap("{", strings.Repeat(" ", 4096), hdr[1:]+lines[0]),
			"reading body: http: request body too large"},
		{"stream cut after its first line", "/v1/report",
			overCap(hdr, strings.Join(lines, ""), ""),
			"reading body: http: request body too large"},
		{"oversize blob", "/v1/aggregate",
			overCap(string(blob), string(make([]byte, 4096)), ""),
			"reading body: http: request body too large"},
	} {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		if got := refusal(t, rec, http.StatusBadRequest); got != tc.refusal {
			t.Errorf("%s: refused with %q, want %q", tc.name, got, tc.refusal)
		}
		if g, r, w := stats(); g != gen || r != reports || w != records {
			t.Errorf("%s: generation %d→%d, reports %g→%g, WAL records %d→%d", tc.name, gen, g, reports, r, records, w)
		}
	}
}

// readReportsFresh decodes each report line into a fresh fo.Report. It
// is FuzzReportStream's reference: ReadReports, which reuses one value,
// must answer as it does.
func readReportsFresh(r io.Reader, agg *fo.Aggregate) error {
	dec := json.NewDecoder(r)
	for {
		var rep fo.Report
		if err := dec.Decode(&rep); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("bad report line: %v", err)
		}
		if err := agg.Add(rep); err != nil {
			return err
		}
	}
}

// FuzzReportStream decodes arbitrary POST /v1/report bodies. The first
// line goes through ParseStreamHead, which must not panic: an accepted
// header re-marshals and parses back equal, an accepted report equals
// json.Unmarshal into fo.Report. The other lines go through ReadReports
// and readReportsFresh into aggregates of the header's shape (one plane
// of 1000 cells without a usable header), which must answer alike: with
// ReadReports reading through a 16-byte and a default-size buffer, and
// with the stream ending at EOF or failing with a read error.
func FuzzReportStream(f *testing.F) {
	hdr := func(shape ...int) string {
		b, err := json.Marshal(&collector.Pipeline{
			Format: collector.ReportsFormat, Mech: "DAM", D: 15, Eps: 3.5,
			Scheme: "fuzz", Shape: shape, Domain: collector.DomainSpec{Side: 1},
		})
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	for _, seed := range []string{
		hdr(1000) + "{\"planes\":[[3]]}\n{\"planes\":[[999]]}\n",
		"{\"planes\":[[7]]}\n{\"planes\":[[8]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[2]]}\n{}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[2]]}\n{\"planes\":null}\n",
		hdr(16, 16) + "{\"planes\":[[1],[2,3]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[2",
		"{\"planes\":[[1]]}\n{\"planes\":[[012]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[-1]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[1e2]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[1.0]]}\n",
		"{\"planes\": [[1]]}\n{\"planes\": [[1]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[123456789012345678]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[1234567890123456789]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[12345678901234567890]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[4]]}{\"planes\":[[5]]}\n",
		hdr(16, 16) + "{\"planes\":[[1,2],[]]}\n",
		"{\"planes\":[[1]]}\n{\"planes\":[]}\n",
		"{\"planes\":[]}\n{\"planes\":[[],[7]]}\n",
		"{\"planes\":[[],[7]]}\n",
		"{\"planes\":[[1]]}\r\n{\"planes\":[[2]]}\r\n",
		"{\"planes\":[[1]]}\n{\"planes\":[[2]]}",
		hdr(1000) + "{\"planes\":[[3]]}\n{\"planes\": [[4]]}\n{\"planes\":[[5]]}\n{\"planes\":[[6]]}\n",
		hdr(1000) + "{\"planes\":[[3]]}\n{\"planes\":[[4]]}\n{\"planes\":[[5",
		hdr(3, 4, 16, 64) + "{\"planes\":[[1],null,[2,9],null]}\n{\"planes\":[[2],null,null,[7,40]]}\n{\"planes\":[[0],[3],null,null]}\n",
		hdr(64, 8, 512, 1) + "{\"planes\":[[0,1,2],[2],null,null]}\n{\"planes\":[[5],[1],[17,300],[0]]}\n{\"planes\":[[0,1,2],[2],null,null]}\n",
		"{\"planes\":[null]}\n{\"planes\":[null]}\n{\"planes\":[[1]]}\n{\"planes\":[nul]}\n",
		"{\"planes\":[[1],null]}\n{\"planes\":[null,null]}\n{\"planes\":[nullnull]}\n",
	} {
		f.Add([]byte(seed))
	}
	errCut := errors.New("connection cut")
	f.Fuzz(func(t *testing.T, stream []byte) {
		hdr, first, err := collector.ParseStreamHead(stream)
		line, rest, _ := bytes.Cut(stream, []byte("\n"))
		switch {
		case err != nil:
		case hdr != nil:
			b, err := json.Marshal(hdr)
			if err != nil {
				t.Fatal(err)
			}
			back, _, err := collector.ParseStreamHead(b)
			if err != nil || !reflect.DeepEqual(back, hdr) {
				t.Fatalf("header %+v parses back as %+v (%v)", hdr, back, err)
			}
		default:
			var want fo.Report
			if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(*first, want) {
				t.Fatalf("first report %+v, json.Unmarshal gives %+v (%v)", *first, want, err)
			}
		}

		shape := []int{1000}
		if hdr != nil && len(hdr.Shape) <= 4 {
			shape = hdr.Shape
			for _, n := range hdr.Shape {
				if n < 0 || n > 4096 {
					shape = []int{1000}
				}
			}
		}
		newAgg := func() *fo.Aggregate {
			planes := make([][]float64, len(shape))
			for i, n := range shape {
				planes[i] = make([]float64, n)
			}
			return &fo.Aggregate{Planes: planes}
		}
		for _, fail := range []error{io.EOF, errCut} {
			src := func() io.Reader { return io.MultiReader(bytes.NewReader(rest), iotest.ErrReader(fail)) }
			want := newAgg()
			wantErr := readReportsFresh(src(), want)
			for _, size := range []int{16, 4096} {
				got := newAgg()
				gotErr := collector.ReadReports(bufio.NewReaderSize(src(), size), got)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("ReadReports (%d-byte buffer, ends in %v) answered %v, one value per line %v", size, fail, gotErr, wantErr)
				}
				if gotErr == nil && (got.N != want.N || !reflect.DeepEqual(got.Planes, want.Planes)) {
					t.Fatalf("ReadReports (%d-byte buffer) counted %g reports %v, one value per line %g reports %v", size, got.N, got.Planes, want.N, want.Planes)
				}
			}
		}
	})
}

// TestReadReportsAllocations pins the allocations of ReadReports over
// json.Marshal's report lines: every line is scanned into one reused
// value, so a stream allocates the same whatever its length.
func TestReadReportsAllocations(t *testing.T) {
	mech := newDAM(t, 15, 3.5)
	short, long := reportLines(t, mech, 200, 5), reportLines(t, mech, 2000, 5)
	allocs := readReportsAllocs(t, mech, short, long)
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Fatalf("ReadReports allocated %v times for 200 lines and %v for 2,000, want the same and at most 4", allocs[0], allocs[1])
	}
}

// TestReadReportsNullPlaneAllocations is TestReadReportsAllocations over
// streams with null planes: AHEAD reports of 3 or more levels, and
// LDPTrace reports without a sampled transition. Their planes vary in
// length and the reused value grows to the longest once, so the long
// stream repeats the short one, and both hold the same longest plane.
func TestReadReportsNullPlaneAllocations(t *testing.T) {
	dom, err := grid.NewDomain(0, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ahead, err := rangequery.NewAHEAD(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	ldp, err := trajectory.NewLDPTrace(dom, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []fo.Reporter{ahead, ldpTraceSteps{ldp, dom}} {
		short := reportLines(t, mech, 200, 5)
		long := slices.Concat(slices.Repeat([][]string{short}, 10)...)
		if allocs := readReportsAllocs(t, mech, short, long); allocs[0] != allocs[1] {
			t.Errorf("%s: ReadReports allocated %v times for 200 lines and %v for 2,000, want the same", mech.Scheme(), allocs[0], allocs[1])
		}
	}
}

// readReportsAllocs returns the allocations of one ReadReports call
// over each stream of report lines, counted into one aggregate.
func readReportsAllocs(t *testing.T, mech fo.Reporter, streams ...[]string) []float64 {
	t.Helper()
	agg := fo.NewAggregateFor(mech)
	allocs := make([]float64, len(streams))
	for i, lines := range streams {
		stream := []byte(strings.Join(lines, ""))
		src := bytes.NewReader(nil)
		br := bufio.NewReader(src)
		allocs[i] = testing.AllocsPerRun(20, func() {
			src.Reset(stream)
			br.Reset(src)
			if err := collector.ReadReports(br, agg); err != nil {
				t.Fatal(err)
			}
		})
	}
	return allocs
}

// ldpTraceSteps reports an odd input cell as LDPTrace's one-point
// trajectory, whose transition planes are null, and an even one as a
// step to the cell on its right, whose are not.
type ldpTraceSteps struct {
	*trajectory.LDPTrace
	dom grid.Domain
}

func (l ldpTraceSteps) Report(input int, r *rng.RNG) (fo.Report, error) {
	c := l.dom.CellAt(input)
	if input%2 == 1 || c.X+1 == l.dom.D {
		return l.LDPTrace.Report(input, r)
	}
	right := c.Add(geom.Cell{X: 1})
	return l.ReportTrajectory(trajectory.Trajectory{l.dom.CellCenter(c), l.dom.CellCenter(right)}, r)
}

package collector_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/rng"
)

func newAHEAD(t *testing.T, d int, eps float64) *rangequery.AHEAD {
	t.Helper()
	dom, err := grid.NewDomain(0, 0, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rangequery.NewAHEAD(dom, eps)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// estimatorShards is accumulateShards over any Estimator, for the
// non-DAM mechanisms the query tier serves.
func estimatorShards(t *testing.T, mech collector.Estimator, shards int, seed uint64) []*fo.Aggregate {
	t.Helper()
	out := make([]*fo.Aggregate, shards)
	for s := range out {
		out[s] = mech.NewAggregate()
	}
	r := rng.New(seed)
	user := 0
	for i := 0; i < mech.NumInputs(); i++ {
		for k := 0; k < 5+(i*7)%23; k++ {
			rep, err := mech.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := out[user%shards].Add(rep); err != nil {
				t.Fatal(err)
			}
			user++
		}
	}
	return out
}

// sameAnswer asserts a served query response carries the identical
// answer block as the in-process reference (the Generation field is the
// service's merge counter and intentionally differs from the
// reference's zero).
func sameAnswer(t *testing.T, label string, got, want *collector.QueryResponse) {
	t.Helper()
	if got.Type != want.Type || got.Scheme != want.Scheme || got.Basis != want.Basis {
		t.Fatalf("%s: served (%s %s %s), reference (%s %s %s)",
			label, got.Type, got.Scheme, got.Basis, want.Type, want.Scheme, want.Basis)
	}
	if got.Reports != want.Reports {
		t.Fatalf("%s: served over %g reports, reference %g", label, got.Reports, want.Reports)
	}
	if !reflect.DeepEqual(got.Range, want.Range) {
		t.Fatalf("%s: served range answer %+v, reference %+v", label, got.Range, want.Range)
	}
	if !reflect.DeepEqual(got.TopK, want.TopK) {
		t.Fatalf("%s: served top-k answer %+v, reference %+v", label, got.TopK, want.TopK)
	}
}

// TestQueryMatchesInProcessByteIdentical is the /v1/query acceptance
// check: range and top-k answers served over HTTP equal, bit for bit,
// AnswerQueryFromAggregate on the same shards merged in process.
func TestQueryMatchesInProcessByteIdentical(t *testing.T) {
	mech := newDAM(t, 6, 1.5)
	shards := accumulateShards(t, mech, 3, 11)
	merged := mergeAll(t, mech, shards)

	client, _ := startServer(t, mech, durPipeline(mech, 6, 1.5), 0)
	ctx := context.Background()
	for _, s := range shards {
		if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatal(err)
		}
	}

	rangeReq := collector.QueryRequest{
		Type:  collector.QueryTypeRange,
		Range: rangequery.Query{X0: 1, Y0: 1, X1: 4, Y1: 4},
	}
	topkReq := collector.QueryRequest{Type: collector.QueryTypeTopK, K: 5}
	for _, req := range []collector.QueryRequest{rangeReq, topkReq} {
		got, err := client.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := collector.AnswerQueryFromAggregate(mech, merged, req)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, req.Type, got, want)
		if got.Generation != uint64(len(shards)) {
			t.Fatalf("%s: served generation %d, want %d", req.Type, got.Generation, len(shards))
		}
		if got.Basis != collector.QueryBasisHistogram {
			t.Fatalf("%s: DAM must answer over the histogram basis, got %q", req.Type, got.Basis)
		}
	}

	// The convenience helpers hit the same endpoint.
	viaRange, err := client.QueryRange(ctx, 1, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantRange, err := collector.AnswerQueryFromAggregate(mech, merged, rangeReq)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "QueryRange", viaRange, wantRange)
	viaTopK, err := client.QueryTopK(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, err := collector.AnswerQueryFromAggregate(mech, merged, topkReq)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "QueryTopK", viaTopK, wantTopK)
}

// TestQueryAHEADTreeBasisAndCacheInvalidation checks that a
// tree-capable mechanism answers range queries over the noisy quadtree
// (count units), that the per-generation tree cache serves repeated
// queries, and that a later merge invalidates it — the re-decoded
// answer must equal the in-process decode of the grown union.
func TestQueryAHEADTreeBasisAndCacheInvalidation(t *testing.T) {
	a := newAHEAD(t, 8, 1.5)
	shards := estimatorShards(t, a, 2, 13)

	client, _ := startServer(t, a, &collector.Pipeline{
		Mech: "AHEAD", D: 8, Eps: 1.5,
		Scheme: a.Scheme(), Shape: a.ReportShape(),
		Domain: collector.DomainSpec{MinX: 0, MinY: 0, Side: 1},
	}, 0)
	ctx := context.Background()
	if _, err := client.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}

	req := collector.QueryRequest{
		Type:  collector.QueryTypeRange,
		Range: rangequery.Query{X0: 1, Y0: 2, X1: 6, Y1: 5},
	}
	got1, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := collector.AnswerQueryFromAggregate(a, shards[0], req)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "shard0", got1, want1)
	if got1.Basis != collector.QueryBasisTree {
		t.Fatalf("AHEAD range answer served over %q, want the tree basis", got1.Basis)
	}
	// Same generation again: the cached tree must serve the identical
	// answer.
	again, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "shard0 cached", again, want1)

	// A second merge bumps the generation; the stale tree must not
	// answer for the grown union.
	if _, err := client.SubmitAggregate(ctx, shards[1], nil); err != nil {
		t.Fatal(err)
	}
	union := shards[0].Clone()
	if err := union.Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	got2, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := collector.AnswerQueryFromAggregate(a, union, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "union", got2, want2)
	if got2.Generation != 2 {
		t.Fatalf("post-merge query served generation %d, want 2", got2.Generation)
	}
	if got1.Range.Value == got2.Range.Value {
		t.Fatal("query answer unchanged after doubling the reports — stale cache?")
	}

	// Top-k has no tree form: it falls back to the histogram basis and
	// still matches the in-process decode.
	topk, err := client.QueryTopK(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, err := collector.AnswerQueryFromAggregate(a, union,
		collector.QueryRequest{Type: collector.QueryTypeTopK, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "topk", topk, wantTopK)
	if topk.Basis != collector.QueryBasisHistogram {
		t.Fatalf("top-k served over %q, want the histogram basis", topk.Basis)
	}
}

// TestQueryErrors maps the refusal surface: malformed parameters and
// out-of-domain rectangles are 400s, querying before any data is a 409,
// and non-GET methods are 405s.
func TestQueryErrors(t *testing.T) {
	mech := newDAM(t, 5, 1.2)
	client, _ := startServer(t, mech, durPipeline(mech, 5, 1.2), 0)
	ctx := context.Background()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(client.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// No reports merged yet: a well-formed query is refused with 409.
	if got := status("/v1/query?type=topk&k=3"); got != http.StatusConflict {
		t.Fatalf("pre-data query answered %d, want 409", got)
	}

	for _, s := range accumulateShards(t, mech, 2, 7) {
		if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	bad := []string{
		"/v1/query",                                    // no type
		"/v1/query?type=bogus&k=3",                     // unknown type
		"/v1/query?type=topk",                          // missing k
		"/v1/query?type=topk&k=0",                      // k < 1
		"/v1/query?type=topk&k=two",                    // unparsable k
		"/v1/query?type=range&x0=1&y0=1&x1=3",          // missing coordinate
		"/v1/query?type=range&x0=a&y0=1&x1=3&y1=3",     // unparsable coordinate
		"/v1/query?type=range&x0=3&y0=1&x1=1&y1=3",     // reversed rectangle
		"/v1/query?type=range&x0=0&y0=0&x1=9&y1=9",     // outside the 5×5 grid
		"/v1/query?type=range&x0=-1&y0=0&x1=2&y1=2",    // negative corner
		"/v1/query?type=range&x0=1&y0=1&x1=3&y1=3&k=0", // bad extra param is ignored, k only read for topk
	}
	for _, path := range bad[:len(bad)-1] {
		if got := status(path); got != http.StatusBadRequest {
			t.Fatalf("%s answered %d, want 400", path, got)
		}
	}
	// The last case is well-formed for type=range: stray k is ignored.
	if got := status(bad[len(bad)-1]); got != http.StatusOK {
		t.Fatalf("%s answered %d, want 200", bad[len(bad)-1], got)
	}

	resp, err := http.Post(client.BaseURL+"/v1/query?type=topk&k=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/query answered %d, want 405", resp.StatusCode)
	}

	// A collector with no mechanism yet refuses with 409, like
	// /v1/estimate.
	adopt, err := collector.New(collector.Config{
		Build: func(p *collector.Pipeline) (collector.Estimator, error) {
			return nil, fmt.Errorf("test: never adopts")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(adopt)
	t.Cleanup(srv.Close)
	resp2, err := http.Get(srv.URL + "/v1/query?type=topk&k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("mechanism-less query answered %d, want 409", resp2.StatusCode)
	}
}

// FuzzParseQueryRequest parses arbitrary /v1/query strings the way the
// engine does: url.ParseQuery, keeping whatever pairs it could read as
// r.URL.Query does, then ParseQueryRequest. It must not panic, an
// accepted top-k request has K >= 1, and an accepted request renders
// through Values and parses back equal.
func FuzzParseQueryRequest(f *testing.F) {
	for _, seed := range []string{
		"type=topk&k=3",
		"type=range&x0=1&y0=1&x1=3&y1=3",
		"type=bogus&k=3",
		"type=topk",
		"type=topk&k=0",
		"type=topk&k=two",
		"type=range&x0=1&y0=1&x1=3",
		"type=range&x0=a&y0=1&x1=3&y1=3",
		"type=range&x0=3&y0=1&x1=1&y1=3",
		"type=range&x0=0&y0=0&x1=9&y1=9",
		"type=range&x0=-1&y0=0&x1=2&y1=2",
		"type=range&x0=1&y0=1&x1=3&y1=3&k=0",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw)
		req, err := collector.ParseQueryRequest(v)
		if err != nil {
			return
		}
		if req.Type == collector.QueryTypeTopK && req.K < 1 {
			t.Fatalf("%q: accepted top-k request with k = %d", raw, req.K)
		}
		back, err := req.Values()
		if err != nil {
			t.Fatalf("%q: accepted request %+v does not render: %v", raw, req, err)
		}
		again, err := collector.ParseQueryRequest(back)
		if err != nil || again != req {
			t.Fatalf("%q: %+v renders as %q and parses back as %+v (%v)", raw, req, back.Encode(), again, err)
		}
	})
}

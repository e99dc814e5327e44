package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/fleet"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/rng"
)

// fleetSameAnswer asserts a fleet-served query response carries the
// identical answer block as the in-process reference on the shard
// union. Generation is the fleet's routed counter, checked separately.
func fleetSameAnswer(t *testing.T, label string, got, want *collector.QueryResponse) {
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

// TestFleetQueryByteIdenticalToInProcess is the /v1/query acceptance
// check one tier up: for any member count, range and top-k answers
// served by the supervisor equal, bit for bit, AnswerQueryFromAggregate
// on the in-process union of the same shards.
func TestFleetQueryByteIdenticalToInProcess(t *testing.T) {
	mech := newDAM(t, 6, 1.5)
	pipeline := damPipeline(mech, 6, 1.5)
	shards := accumulateShards(t, mech, 4, 11)
	union := mergeAll(t, mech, shards)

	rangeReq := collector.QueryRequest{
		Type:  collector.QueryTypeRange,
		Range: rangequery.Query{X0: 0, Y0: 1, X1: 3, Y1: 4},
	}
	topkReq := collector.QueryRequest{Type: collector.QueryTypeTopK, K: 6}
	wantRange, err := collector.AnswerQueryFromAggregate(mech, union, rangeReq)
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, err := collector.AnswerQueryFromAggregate(mech, union, topkReq)
	if err != nil {
		t.Fatal(err)
	}

	for _, members := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("members=%d/round-robin", members), func(t *testing.T) {
			f := startFleet(t, members, newDAM(t, 6, 1.5), pipeline)
			ctx := context.Background()
			for _, s := range shards {
				if _, err := f.client.SubmitAggregate(ctx, s, nil); err != nil {
					t.Fatal(err)
				}
			}
			gotRange, err := f.client.Query(ctx, rangeReq)
			if err != nil {
				t.Fatal(err)
			}
			fleetSameAnswer(t, "range", gotRange, wantRange)
			gotTopK, err := f.client.Query(ctx, topkReq)
			if err != nil {
				t.Fatal(err)
			}
			fleetSameAnswer(t, "topk", gotTopK, wantTopK)
			if gotRange.Generation != uint64(len(shards)) {
				t.Fatalf("fleet served generation %d, want routed count %d",
					gotRange.Generation, len(shards))
			}
		})
	}
}

// TestFleetQueryAHEADTreeBasis serves tree-basis range answers through
// a two-member AHEAD fleet: the supervisor's quadtree over the
// hierarchically merged member aggregates must answer exactly like the
// in-process decode of the union, and keep doing so after more shards
// arrive (the member-state hash invalidates the cached tree).
func TestFleetQueryAHEADTreeBasis(t *testing.T) {
	dom, err := grid.NewDomain(0, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rangequery.NewAHEAD(dom, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	pipeline := &collector.Pipeline{
		Mech: "AHEAD", D: 8, Eps: 1.5,
		Scheme: a.Scheme(), Shape: a.ReportShape(),
		Domain: collector.DomainSpec{MinX: 0, MinY: 0, Side: 1},
	}

	// Two pre-built members under a pre-built supervisor — all sharing
	// the mechanism is fine: decodes build fresh trees.
	urls := make([]string, 2)
	for i := range urls {
		c, err := collector.New(collector.Config{Mechanism: a, Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{Members: urls, Mechanism: a, Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(func() { supSrv.Close(); sup.Close() })
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	// Accumulate three shards on one stream; submit two, query, submit
	// the third, query again.
	shards := make([]*fo.Aggregate, 3)
	r := rng.New(41)
	for s := range shards {
		shards[s] = a.NewAggregate()
	}
	user := 0
	for i := 0; i < a.NumInputs(); i++ {
		for k := 0; k < 2+(i*3)%7; k++ {
			rep, err := a.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := shards[user%3].Add(rep); err != nil {
				t.Fatal(err)
			}
			user++
		}
	}
	req := collector.QueryRequest{
		Type:  collector.QueryTypeRange,
		Range: rangequery.Query{X0: 2, Y0: 0, X1: 7, Y1: 5},
	}

	for _, s := range shards[:2] {
		if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	union2 := shards[0].Clone()
	if err := union2.Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	got2, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := collector.AnswerQueryFromAggregate(a, union2, req)
	if err != nil {
		t.Fatal(err)
	}
	fleetSameAnswer(t, "two shards", got2, want2)
	if got2.Basis != collector.QueryBasisTree {
		t.Fatalf("fleet AHEAD range answer served over %q, want the tree basis", got2.Basis)
	}

	if _, err := client.SubmitAggregate(ctx, shards[2], nil); err != nil {
		t.Fatal(err)
	}
	union3 := union2.Clone()
	if err := union3.Merge(shards[2]); err != nil {
		t.Fatal(err)
	}
	got3, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := collector.AnswerQueryFromAggregate(a, union3, req)
	if err != nil {
		t.Fatal(err)
	}
	fleetSameAnswer(t, "three shards", got3, want3)
}

// TestFleetQueryRefusesPartialUnion takes down a member that holds
// routed shards: /v1/query must answer 503 rather than serve an answer
// over a partial union, and recover once the member returns.
func TestFleetQueryRefusesPartialUnion(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shards := accumulateShards(t, mech, 3, 7)

	gates := make([]*gate, 2)
	urls := make([]string, 2)
	for i := range gates {
		c, err := collector.New(collector.Config{Build: damBuild(t)})
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = &gate{next: c}
		srv := httptest.NewServer(gates[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{
		Members: urls, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(func() { supSrv.Close(); sup.Close() })
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	resp0, err := client.SubmitAggregate(ctx, shards[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	downIdx := 1
	if resp0.Member == urls[0] {
		downIdx = 0
	}
	gates[downIdx].down.Store(true)
	for _, s := range shards[1:] {
		if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatalf("submission with one member down should fail over: %v", err)
		}
	}

	for _, req := range []collector.QueryRequest{
		{Type: collector.QueryTypeRange, Range: rangequery.Query{X0: 0, Y0: 0, X1: 2, Y1: 2}},
		{Type: collector.QueryTypeTopK, K: 3},
	} {
		_, err := client.Query(ctx, req)
		var se *collector.StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s query with a shard-holding member down answered %v, want HTTP 503", req.Type, err)
		}
	}

	// Member returns: the fleet answers over the full union again.
	gates[downIdx].down.Store(false)
	union := mergeAll(t, mech, shards)
	got, err := client.Query(ctx, collector.QueryRequest{Type: collector.QueryTypeTopK, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := collector.AnswerQueryFromAggregate(mech, union, collector.QueryRequest{Type: collector.QueryTypeTopK, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	fleetSameAnswer(t, "post-recovery", got, want)
}

package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/fleet"
	"dpspatial/internal/fo"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/rng"
)

// The golden tests pin each tier's quiesced /metrics exposition after a
// fixed traffic script, so a change to the serving core that moves any
// counter, label, HELP or TYPE line shows up as a diff. Only the
// latency histograms (the _seconds families) are left out: their
// buckets follow the clock, not the program.

// aheadBuild builds the AHEAD mechanism from a submission's pipeline
// metadata, for adopt-mode tiers.
func aheadBuild(p *collector.Pipeline) (collector.Estimator, error) {
	if p.Mech != "AHEAD" {
		return nil, fmt.Errorf("test builder only builds AHEAD, not %q", p.Mech)
	}
	dom, err := p.GridDomain()
	if err != nil {
		return nil, err
	}
	return rangequery.NewAHEAD(dom, p.Eps)
}

// goldenShards builds the script's two AHEAD shards on one seeded
// stream, plus the pipeline that adopts them.
func goldenShards(t *testing.T) ([][]byte, *collector.Pipeline) {
	t.Helper()
	p := &collector.Pipeline{Mech: "AHEAD", D: 8, Eps: 1.5, Domain: collector.DomainSpec{Side: 1}}
	mech, err := aheadBuild(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Scheme, p.Shape = mech.Scheme(), mech.ReportShape()
	shards := []*fo.Aggregate{mech.NewAggregate(), mech.NewAggregate()}
	r := rng.New(29)
	user := 0
	for i := 0; i < mech.NumInputs(); i++ {
		for k := 0; k < 2+(i*3)%7; k++ {
			rep, err := mech.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := shards[user%2].Add(rep); err != nil {
				t.Fatal(err)
			}
			user++
		}
	}
	blobs := make([][]byte, len(shards))
	for i, s := range shards {
		if blobs[i], err = s.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	return blobs, p
}

// runGoldenScript drives one tier through the fixed script: an adopting
// submission, a second submission, a duplicate replay, two estimates, a
// range query, a top-k query and a refused (out-of-grid) range query.
func runGoldenScript(t *testing.T, client *collector.Client) {
	t.Helper()
	ctx := context.Background()
	blobs, pipeline := goldenShards(t)
	if _, err := client.SubmitAggregateBlobWithID(ctx, blobs[0], pipeline, "golden-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitAggregateBlobWithID(ctx, blobs[1], nil, "golden-1"); err != nil {
		t.Fatal(err)
	}
	if dup, err := client.SubmitAggregateBlobWithID(ctx, blobs[0], pipeline, "golden-0"); err != nil || !dup.Duplicate {
		t.Fatalf("replay: duplicate=%v err=%v", dup != nil && dup.Duplicate, err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := client.Estimate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.QueryRange(ctx, 2, 0, 7, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryTopK(ctx, 5); err != nil {
		t.Fatal(err)
	}
	var se *collector.StatusError
	if _, err := client.QueryRange(ctx, 0, 0, 8, 8); !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-grid range query: %v, want a 400", err)
	}
}

// normalizeExposition drops the series lines of the _seconds histogram
// families, renames each member URL to member-<index>, and re-sorts
// every family's series lines so the renaming cannot reorder them.
func normalizeExposition(exp string, members []string) string {
	var out, block []string
	flush := func() {
		sort.Strings(block)
		out = append(out, block...)
		block = block[:0]
	}
	for _, line := range strings.Split(strings.TrimSpace(exp), "\n") {
		if strings.HasPrefix(line, "#") {
			flush()
			out = append(out, line)
			continue
		}
		name, _, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		if strings.Contains(name, "_seconds_") {
			continue
		}
		for i, url := range members {
			line = strings.ReplaceAll(line, `"`+url+`"`, fmt.Sprintf(`"member-%d"`, i))
		}
		block = append(block, line)
	}
	flush()
	return strings.Join(out, "\n") + "\n"
}

// checkGolden compares the tier's normalized exposition with its golden
// file.
func checkGolden(t *testing.T, baseURL, golden string, members []string) {
	t.Helper()
	got := normalizeExposition(scrapeFleetMetrics(t, baseURL), members)
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s\nfull output:\n%s", golden, i+1, g, w, got)
		}
	}
}

// TestMetricsGoldenCollector pins an adopt-mode collector's exposition.
func TestMetricsGoldenCollector(t *testing.T) {
	c, err := collector.New(collector.Config{Build: aheadBuild})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	t.Cleanup(func() { srv.Close(); c.Close() })
	runGoldenScript(t, collector.NewClient(srv.URL))
	checkGolden(t, srv.URL, "collector.metrics", nil)
}

// TestMetricsGoldenSupervisor pins an adopt-mode supervisor's exposition
// over two adopt-mode members.
func TestMetricsGoldenSupervisor(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		c, err := collector.New(collector.Config{Build: aheadBuild})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{Members: urls, Build: aheadBuild})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sup)
	t.Cleanup(func() { srv.Close(); sup.Close() })
	runGoldenScript(t, collector.NewClient(srv.URL))
	checkGolden(t, srv.URL, "supervisor.metrics", urls)
}

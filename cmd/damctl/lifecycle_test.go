package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportAggregateEstimatePipeline drives the full distributed
// lifecycle from the CLI — gen → report (2 shards) → two independent
// aggregate runs → merge → estimate --from-aggregate — and checks the
// result is identical to the in-process estimate for the same seed.
func TestReportAggregateEstimatePipeline(t *testing.T) {
	for _, mech := range []string{"DAM", "MDSW"} {
		t.Run(mech, func(t *testing.T) {
			dir := t.TempDir()
			pts := filepath.Join(dir, "points.csv")
			capture(t, func() error {
				return cmdGen([]string{"--dataset", "SZipf", "--scale", "0.002", "--seed", "7", "--out", pts})
			})

			prefix := filepath.Join(dir, "rep")
			capture(t, func() error {
				return cmdReport([]string{"--in", pts, "--d", "6", "--eps", "1.5",
					"--mech", mech, "--seed", "5", "--shards", "2", "--out", prefix})
			})

			agg0 := filepath.Join(dir, "agg0.json")
			agg1 := filepath.Join(dir, "agg1.json")
			merged := filepath.Join(dir, "agg.json")
			capture(t, func() error {
				return cmdAggregate([]string{"--out", agg0, prefix + "-000.jsonl"})
			})
			capture(t, func() error {
				return cmdAggregate([]string{"--out", agg1, prefix + "-001.jsonl"})
			})
			capture(t, func() error {
				return cmdAggregate([]string{"--out", merged, agg0, agg1})
			})

			fromAgg := capture(t, func() error {
				return cmdEstimate([]string{"--from-aggregate", merged})
			})
			direct := capture(t, func() error {
				return cmdEstimate([]string{"--in", pts, "--d", "6", "--eps", "1.5",
					"--mech", mech, "--seed", "5"})
			})
			if fromAgg != direct {
				t.Fatalf("sharded aggregate estimate differs from the in-process pipeline\nfrom aggregate:\n%s\ndirect:\n%s", fromAgg, direct)
			}
			if !strings.HasPrefix(fromAgg, "cell_x,cell_y,probability\n") {
				t.Fatalf("unexpected estimate output:\n%s", fromAgg)
			}
		})
	}
}

// TestAggregateStdinStream checks that the aggregator consumes a report
// stream from stdin — the `producer | damctl aggregate` deployment shape.
func TestAggregateStdinStream(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "points.csv")
	capture(t, func() error {
		return cmdGen([]string{"--dataset", "SZipf", "--scale", "0.002", "--seed", "7", "--out", pts})
	})
	reports := filepath.Join(dir, "reports.jsonl")
	capture(t, func() error {
		return cmdReport([]string{"--in", pts, "--d", "6", "--eps", "1.5", "--seed", "5", "--out", reports})
	})

	fromFile := capture(t, func() error {
		return cmdAggregate([]string{reports})
	})
	f, err := os.Open(reports)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldStdin := os.Stdin
	os.Stdin = f
	fromStdin := capture(t, func() error {
		return cmdAggregate(nil)
	})
	os.Stdin = oldStdin
	if fromFile != fromStdin {
		t.Fatal("stdin aggregation differs from file aggregation")
	}
	if !strings.Contains(fromFile, `"format":"dpspatial-aggregate/1"`) {
		t.Fatalf("missing aggregate format marker:\n%s", fromFile)
	}
}

// TestAggregateRejectsMixedSchemes checks that shards from different
// mechanisms refuse to merge.
func TestAggregateRejectsMixedSchemes(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "points.csv")
	capture(t, func() error {
		return cmdGen([]string{"--dataset", "SZipf", "--scale", "0.002", "--seed", "7", "--out", pts})
	})
	dam := filepath.Join(dir, "dam.jsonl")
	mdsw := filepath.Join(dir, "mdsw.jsonl")
	capture(t, func() error {
		return cmdReport([]string{"--in", pts, "--d", "6", "--eps", "1.5", "--mech", "DAM", "--out", dam})
	})
	capture(t, func() error {
		return cmdReport([]string{"--in", pts, "--d", "6", "--eps", "1.5", "--mech", "MDSW", "--out", mdsw})
	})
	if err := cmdAggregate([]string{"--out", filepath.Join(dir, "x.json"), dam, mdsw}); err == nil {
		t.Fatal("aggregating DAM and MDSW reports together should fail")
	}
}

// TestAggregateRefusesBadReportLines checks the errors `damctl
// aggregate` answers for report lines it cannot count: a line that is
// not JSON, a line with the wrong plane count, and a line without
// "planes" after a valid one.
func TestAggregateRefusesBadReportLines(t *testing.T) {
	const hdr = `{"format":"dpspatial-reports/1","mech":"DAM","d":2,"eps":1,"scheme":"s","shape":[9],"domain":{"minX":0,"minY":0,"side":1}}` + "\n"
	dir := t.TempDir()
	for i, tc := range []struct{ lines, want string }{
		{"{\"planes\":[[3]]}\nnope\n", "bad report line: invalid character 'o' in literal null (expecting 'u')"},
		{"{\"planes\":[[3],[4]]}\n", "fo: report has 2 planes, aggregate 1"},
		{"{\"planes\":[[3]]}\n{}\n", "fo: report has 0 planes, aggregate 1"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("r%d.jsonl", i))
		if err := os.WriteFile(path, []byte(hdr+tc.lines), 0o644); err != nil {
			t.Fatal(err)
		}
		err := cmdAggregate([]string{"--out", filepath.Join(dir, "agg.json"), path})
		if want := path + ": " + tc.want; err == nil || err.Error() != want {
			t.Errorf("aggregating %q: got %v, want %q", tc.lines, err, want)
		}
	}
}

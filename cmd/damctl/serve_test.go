package main

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
)

// startTestCollector runs a collector with the CLI's mechanism builder
// (adopt-from-first-submission) under an httptest server.
func startTestCollector(t *testing.T) *httptest.Server {
	t.Helper()
	c, err := collector.New(collector.Config{Build: adoptMechanism})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	t.Cleanup(srv.Close)
	return srv
}

// TestSubmitEstimateFromURL drives the networked lifecycle end to end
// from the CLI: report shards submitted to a collector over HTTP must
// decode to exactly the estimate the file-based aggregate path produces
// on the same shards.
func TestSubmitEstimateFromURL(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "points.csv")
	capture(t, func() error {
		return cmdGen([]string{"--dataset", "SZipf", "--scale", "0.002", "--seed", "7", "--out", pts})
	})
	prefix := filepath.Join(dir, "rep")
	capture(t, func() error {
		return cmdReport([]string{"--in", pts, "--d", "6", "--eps", "1.5",
			"--seed", "5", "--shards", "2", "--out", prefix})
	})

	srv := startTestCollector(t)
	submitOut := capture(t, func() error {
		return cmdSubmit([]string{"--url", srv.URL, prefix + "-000.jsonl", prefix + "-001.jsonl"})
	})
	if !strings.Contains(submitOut, "generation 2") {
		t.Fatalf("submit did not acknowledge two merged shards:\n%s", submitOut)
	}

	fromURL := capture(t, func() error {
		return cmdEstimate([]string{"--from-url", srv.URL})
	})
	merged := filepath.Join(dir, "agg.json")
	capture(t, func() error {
		return cmdAggregate([]string{"--out", merged, prefix + "-000.jsonl", prefix + "-001.jsonl"})
	})
	fromAgg := capture(t, func() error {
		return cmdEstimate([]string{"--from-aggregate", merged})
	})
	if fromURL != fromAgg {
		t.Fatalf("collector estimate differs from the file-based aggregate estimate\nfrom url:\n%s\nfrom aggregate:\n%s", fromURL, fromAgg)
	}
	if !strings.HasPrefix(fromURL, "cell_x,cell_y,probability\n") {
		t.Fatalf("unexpected estimate output:\n%s", fromURL)
	}
}

// TestSubmitMixedShardKinds submits a report shard and a binary
// aggregate blob of the second shard, and checks the collector's
// estimate still matches the file-based merge of both.
func TestSubmitMixedShardKinds(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "points.csv")
	capture(t, func() error {
		return cmdGen([]string{"--dataset", "SZipf", "--scale", "0.002", "--seed", "9", "--out", pts})
	})
	prefix := filepath.Join(dir, "rep")
	capture(t, func() error {
		return cmdReport([]string{"--in", pts, "--d", "5", "--eps", "2",
			"--seed", "3", "--shards", "2", "--out", prefix})
	})
	// Aggregate the second shard into an envelope file first, so submit
	// exercises both the reports framing and the envelope framing.
	shard1 := filepath.Join(dir, "shard1.json")
	capture(t, func() error {
		return cmdAggregate([]string{"--out", shard1, prefix + "-001.jsonl"})
	})

	srv := startTestCollector(t)
	capture(t, func() error {
		return cmdSubmit([]string{"--url", srv.URL, prefix + "-000.jsonl", shard1})
	})
	fromURL := capture(t, func() error {
		return cmdEstimate([]string{"--from-url", srv.URL})
	})

	merged := filepath.Join(dir, "agg.json")
	capture(t, func() error {
		return cmdAggregate([]string{"--out", merged, prefix + "-000.jsonl", prefix + "-001.jsonl"})
	})
	fromAgg := capture(t, func() error {
		return cmdEstimate([]string{"--from-aggregate", merged})
	})
	if fromURL != fromAgg {
		t.Fatal("mixed report/envelope submission decodes differently from the file merge")
	}
}

// TestSubmitDurableRestartDuplicate is the CLI face of the durability
// story: a shard submitted under an explicit --submission-id before a
// hard crash is acknowledged as a duplicate when re-submitted to a
// fresh collector recovering from the same --data-dir, and the
// recovered estimate matches the file-based merge of everything that
// was ever accepted.
func TestSubmitDurableRestartDuplicate(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "points.csv")
	capture(t, func() error {
		return cmdGen([]string{"--dataset", "SZipf", "--scale", "0.002", "--seed", "11", "--out", pts})
	})
	prefix := filepath.Join(dir, "rep")
	capture(t, func() error {
		return cmdReport([]string{"--in", pts, "--d", "6", "--eps", "1.5",
			"--seed", "4", "--shards", "2", "--out", prefix})
	})

	startDurableCollector := func(dataDir string) (*httptest.Server, *durable.Store) {
		t.Helper()
		st, err := durable.Open(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := collector.New(collector.Config{
			Store: st,
			Build: func(p *collector.Pipeline) (collector.Estimator, error) {
				return dpspatial.NewMechanismFromPipeline(p)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		return srv, st
	}

	stateDir := filepath.Join(dir, "state")
	srv1, st1 := startDurableCollector(stateDir)
	firstOut := capture(t, func() error {
		return cmdSubmit([]string{"--url", srv1.URL, "--submission-id", "cli-shard-0", prefix + "-000.jsonl"})
	})
	if strings.Contains(firstOut, "duplicate") {
		t.Fatalf("first submission must not be a duplicate:\n%s", firstOut)
	}

	// kill -9: no collector.Close, so no shutdown snapshot — recovery
	// has only the WAL to go on.
	srv1.Close()
	st1.Close()

	srv2, st2 := startDurableCollector(stateDir)
	defer st2.Close()
	replay := capture(t, func() error {
		return cmdSubmit([]string{"--url", srv2.URL, "--submission-id", "cli-shard-0", prefix + "-000.jsonl"})
	})
	if !strings.Contains(replay, "duplicate: original ack replayed") {
		t.Fatalf("re-submission after restart must replay the original ack:\n%s", replay)
	}
	if !strings.Contains(replay, "generation 1") {
		t.Fatalf("replayed ack must carry the original generation:\n%s", replay)
	}
	capture(t, func() error {
		return cmdSubmit([]string{"--url", srv2.URL, prefix + "-001.jsonl"})
	})

	fromURL := capture(t, func() error {
		return cmdEstimate([]string{"--from-url", srv2.URL})
	})
	merged := filepath.Join(dir, "agg.json")
	capture(t, func() error {
		return cmdAggregate([]string{"--out", merged, prefix + "-000.jsonl", prefix + "-001.jsonl"})
	})
	fromAgg := capture(t, func() error {
		return cmdEstimate([]string{"--from-aggregate", merged})
	})
	if fromURL != fromAgg {
		t.Fatalf("recovered collector estimate differs from the file-based merge\nfrom url:\n%s\nfrom aggregate:\n%s", fromURL, fromAgg)
	}
}

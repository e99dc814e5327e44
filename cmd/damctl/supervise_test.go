package main

import (
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpspatial/internal/fleet"
)

// startTestFleet wires two adopt-mode collectors under an adopt-mode
// supervisor — the `damctl supervise` topology — all over httptest.
func startTestFleet(t *testing.T) *httptest.Server {
	t.Helper()
	urls := make([]string, 2)
	for i := range urls {
		srv := startTestCollector(t)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{Members: urls, Build: adoptMechanism})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sup)
	t.Cleanup(func() { srv.Close(); sup.Close() })
	return srv
}

// TestSubmitEstimateViaSupervisor drives the fleet from the CLI: report
// shards submitted to a supervisor over HTTP — routed across two real
// collectors — must decode to exactly the estimate the file-based
// aggregate path produces on the same shards. `submit` and `estimate
// --from-url` point at the supervisor with no fleet-specific flags.
func TestSubmitEstimateViaSupervisor(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "points.csv")
	capture(t, func() error {
		return cmdGen([]string{"--dataset", "SZipf", "--scale", "0.002", "--seed", "7", "--out", pts})
	})
	prefix := filepath.Join(dir, "rep")
	capture(t, func() error {
		return cmdReport([]string{"--in", pts, "--d", "6", "--eps", "1.5",
			"--seed", "5", "--shards", "3", "--out", prefix})
	})

	srv := startTestFleet(t)
	submitOut := capture(t, func() error {
		return cmdSubmit([]string{"--url", srv.URL,
			prefix + "-000.jsonl", prefix + "-001.jsonl", prefix + "-002.jsonl"})
	})
	if !strings.Contains(submitOut, "generation 3") {
		t.Fatalf("submit did not acknowledge three routed shards:\n%s", submitOut)
	}
	if !strings.Contains(submitOut, " via http") {
		t.Fatalf("submit acks through a supervisor should name the routed member:\n%s", submitOut)
	}

	fromURL := capture(t, func() error {
		return cmdEstimate([]string{"--from-url", srv.URL})
	})
	merged := filepath.Join(dir, "agg.json")
	capture(t, func() error {
		return cmdAggregate([]string{"--out", merged,
			prefix + "-000.jsonl", prefix + "-001.jsonl", prefix + "-002.jsonl"})
	})
	fromAgg := capture(t, func() error {
		return cmdEstimate([]string{"--from-aggregate", merged})
	})
	if fromURL != fromAgg {
		t.Fatalf("fleet estimate differs from the file-based aggregate estimate\nfrom url:\n%s\nfrom aggregate:\n%s", fromURL, fromAgg)
	}
}

// TestMemberListFlag pins the --member flag's accumulation and
// comma-splitting.
func TestMemberListFlag(t *testing.T) {
	var m memberList
	for _, v := range []string{"http://a:1", "http://b:2,http://c:3", " http://d:4 , "} {
		if err := m.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	want := memberList{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("memberList parsed %v, want %v", m, want)
	}
}

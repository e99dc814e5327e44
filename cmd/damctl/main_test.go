package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tinyFlags keeps every smoke test in the sub-second range.
var tinyFlags = []string{
	"--scale", "0.002", "--repeats", "1", "--max-points", "1500",
	"--no-lp-cal", "--seed", "11",
}

// capture runs a subcommand with os.Stdout redirected and returns what it
// printed, failing the test if the command errors.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", runErr, out)
	}
	return out
}

func TestCmdFigText(t *testing.T) {
	out := capture(t, func() error {
		return cmdFig(append([]string{"--fig", "9d"}, tinyFlags...))
	})
	if !strings.Contains(out, "fig9d") {
		t.Fatalf("figure name missing from output:\n%s", out)
	}
	for _, mech := range []string{"DAM", "MDSW", "HUEM", "SEM-Geo-I"} {
		if !strings.Contains(out, mech) {
			t.Fatalf("series %s missing from output:\n%s", mech, out)
		}
	}
}

func TestCmdFigJSON(t *testing.T) {
	out := capture(t, func() error {
		return cmdFig(append([]string{"--fig", "9d", "--json"}, tinyFlags...))
	})
	var fig struct {
		Name   string
		Series []struct {
			Label string
			X, Y  []float64
		}
	}
	if err := json.Unmarshal([]byte(out), &fig); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if fig.Name != "fig9d" || len(fig.Series) != 5 {
		t.Fatalf("unexpected figure %q with %d series", fig.Name, len(fig.Series))
	}
}

func TestCmdFigUnknown(t *testing.T) {
	if err := cmdFig(append([]string{"--fig", "zz"}, tinyFlags...)); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := cmdFig(tinyFlags); err == nil {
		t.Fatal("missing --fig accepted")
	}
}

func TestCmdTables(t *testing.T) {
	out := capture(t, func() error {
		return cmdTables(append([]string{"--table", "3"}, tinyFlags...))
	})
	if !strings.Contains(out, "Crime") || !strings.Contains(out, "NYC") {
		t.Fatalf("table 3 lost dataset rows:\n%s", out)
	}
	for _, n := range []string{"4", "5"} {
		out := capture(t, func() error {
			return cmdTables(append([]string{"--table", n}, tinyFlags...))
		})
		if !strings.Contains(out, "privacy budget eps") {
			t.Fatalf("table %s lost parameter rows:\n%s", n, out)
		}
	}
	if err := cmdTables(append([]string{"--table", "9"}, tinyFlags...)); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestCmdShapes(t *testing.T) {
	out := capture(t, func() error {
		return cmdShapes(append([]string{"--figs", "9d"}, tinyFlags...))
	})
	if !strings.Contains(out, "fig9d") {
		t.Fatalf("audited figure missing:\n%s", out)
	}
	if !strings.Contains(out, "PASS") && !strings.Contains(out, "DIVERGES") {
		t.Fatalf("claim audit lines missing:\n%s", out)
	}
}

// TestCmdEstimateOneCellSEMGeoI: on a one-cell grid no mechanism leaks
// anything, so SEM-Geo-I's local-privacy calibration has no target and
// the estimate is the whole mass on the single cell.
func TestCmdEstimateOneCellSEMGeoI(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "points.csv")
	if err := os.WriteFile(csvPath, []byte("x,y\n0.1,0.2\n0.5,0.7\n0.9,0.4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error {
		return cmdEstimate([]string{"--in", csvPath, "--d", "1", "--eps", "2", "--mech", "SEM-Geo-I"})
	})
	if got, want := strings.TrimSpace(out), "cell_x,cell_y,probability\n0,0,1"; got != want {
		t.Fatalf("estimate output %q, want %q", got, want)
	}
}

func TestCmdGenAndEstimate(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "points.csv")
	capture(t, func() error {
		return cmdGen(append([]string{"--dataset", "SZipf", "--out", csvPath}, tinyFlags...))
	})
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "x,y" || len(lines) < 10 {
		t.Fatalf("generated CSV malformed: %d lines, header %q", len(lines), lines[0])
	}
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 2 {
			t.Fatalf("bad row %q", line)
		}
		for _, c := range cols {
			if _, err := strconv.ParseFloat(c, 64); err != nil {
				t.Fatalf("bad number in row %q: %v", line, err)
			}
		}
	}

	for _, mech := range []string{"DAM", "DAM-NS", "HUEM", "MDSW", "SEM-Geo-I"} {
		out := capture(t, func() error {
			return cmdEstimate([]string{
				"--in", csvPath, "--d", "4", "--eps", "2",
				"--mech", mech,
			})
		})
		rows := strings.Split(strings.TrimSpace(out), "\n")
		if rows[0] != "cell_x,cell_y,probability" {
			t.Fatalf("%s: missing CSV header, got %q", mech, rows[0])
		}
		if len(rows) != 1+4*4 {
			t.Fatalf("%s: %d rows for a 4x4 grid", mech, len(rows))
		}
		total := 0.0
		for _, row := range rows[1:] {
			cols := strings.Split(row, ",")
			p, err := strconv.ParseFloat(cols[2], 64)
			if err != nil {
				t.Fatalf("%s: bad probability in %q: %v", mech, row, err)
			}
			total += p
		}
		if total < 0.99 || total > 1.01 {
			t.Fatalf("%s: probabilities sum to %v", mech, total)
		}
	}

	if err := cmdEstimate([]string{"--in", csvPath, "--d", "4", "--eps", "2", "--mech", "nope"}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if err := cmdEstimate([]string{"--d", "4"}); err == nil {
		t.Fatal("missing --in accepted")
	}
}

func TestCmdGenUnknownDataset(t *testing.T) {
	if err := cmdGen(append([]string{"--dataset", "nope"}, tinyFlags...)); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCmdAblate(t *testing.T) {
	out := capture(t, func() error {
		return cmdAblate(append([]string{"--what", "baselines", "--dataset", "SZipf", "--d", "5", "--eps", "2"}, tinyFlags...))
	})
	for _, mech := range []string{"CFO", "MDSW", "AHEAD", "PlanarLaplace", "DAM"} {
		if !strings.Contains(out, mech) {
			t.Fatalf("mechanism %s missing from ablation:\n%s", mech, out)
		}
	}
	out = capture(t, func() error {
		return cmdAblate(append([]string{"--what", "rangequery", "--dataset", "SZipf", "--d", "5", "--eps", "2"}, tinyFlags...))
	})
	if !strings.Contains(out, "selectivity") {
		t.Fatalf("range-query figure malformed:\n%s", out)
	}
	if err := cmdAblate(append([]string{"--what", "nope"}, tinyFlags...)); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

func TestCmdDemo(t *testing.T) {
	out := capture(t, func() error {
		return cmdDemo([]string{"--d", "6", "--n", "4000"})
	})
	if !strings.Contains(out, "True density") || !strings.Contains(out, "DAM estimate") {
		t.Fatalf("demo maps missing:\n%s", out)
	}
	if !strings.Contains(out, "W2(true, estimate)") {
		t.Fatalf("demo W2 line missing:\n%s", out)
	}
}

func TestHarnessFlagsThreadWorkers(t *testing.T) {
	// The shared flags must reach the suite's configuration; the trial
	// pool follows GOMAXPROCS, so there is no --workers flag.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	hc := harnessFlags(fs)
	if err := fs.Parse([]string{"--repeats", "4"}); err != nil {
		t.Fatal(err)
	}
	if cfg := hc.suite().Config(); cfg.Repeats != 4 {
		t.Fatalf("config %+v did not pick up flags", cfg)
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	harnessFlags(fs)
	if err := fs.Parse([]string{"--workers", "3"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -workers") {
		t.Fatalf("--workers parsed with error %v, want an unknown-flag error", err)
	}
}

package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload at a tiny size against freshly
// built daemons: each pass must pass its output checks (served
// aggregate and first estimate byte-identical to the in-process
// reference, no failed call), its exact counts must hold and repeat
// across seeds, and its seeded counts must repeat for a repeated seed.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "damctl")
	build := exec.Command("go", "build", "-o", bin, "dpspatial/cmd/damctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building damctl: %v\n%s", err, out)
	}
	e, err := newEnv(bin, filepath.Join(dir, "work"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	for _, name := range workloadOrder {
		var first map[string]float64
		for _, seed := range []uint64{1, 2, 1} {
			p, err := e.runPass(ctx, name, seed, 1, false, 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if p.failed != 0 || p.attempted == 0 {
				t.Fatalf("%s seed %d: %d of %d calls failed: %v", name, seed, p.failed, p.attempted, p.failures)
			}
			for _, m := range p.endToEnd() {
				if !(m.value > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", name, seed, m.name, m.value)
				}
			}
			x := p.exact
			if got, want := x["wal_fsyncs"], float64(p.submits)+x["snapshots"]; got != want {
				t.Errorf("%s: %g WAL fsyncs, want one per submission plus one per snapshot (%g)", name, got, want)
			}
			if name == "refresh" && p.seeded["em_iters"] <= 0 {
				t.Errorf("refresh: %g EM iterations in the run's decodes", p.seeded["em_iters"])
			}
			if name == "fleet" {
				m, err := loadMechanism(workloads[name].mech)
				if err != nil {
					t.Fatal(err)
				}
				if x["route_attempts_per_submit"] != 1 || x["pull_bytes_per_read"] != float64(2*m.denseLen()) {
					t.Errorf("fleet: exact counts %v", x)
				}
			}
			if err := e.checkExact(p); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
			if first == nil {
				first = x
			} else if len(first) != len(x) {
				t.Errorf("%s: exact counts %v, first seed had %v", name, x, first)
			}
		}
	}

	// A traced run reports every per-layer metric, each from samples.
	res, err := e.runWorkload(ctx, "refresh", 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range layerDefs {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
		if res.layerSamples[d.name] <= 0 {
			t.Errorf("traced run has no sample of %s", d.name)
		}
	}
	if n := len(e.live); n != 0 {
		t.Errorf("%d daemons still running", n)
	}
	runs, _ := os.ReadDir(filepath.Join(e.work, "run"))
	if len(runs) != 0 {
		t.Errorf("%d run directories left behind", len(runs))
	}
}

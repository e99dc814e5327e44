// Command loadbench is the end-to-end load benchmark of the collector
// stack. It starts the real `damctl serve` and `damctl supervise`
// daemons of the checkout under test on loopback, each from a fresh copy
// of a seeded durable fixture, drives one closed-loop workload against
// them, checks every output, and prints one JSON result line.
//
// run.sh builds damctl and this program from the checkout and runs it:
//
//	bash loadbench/run.sh --workload refresh --seed 7 --seconds 15 --trace 0
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, fixture build included, so a wedged
// daemon fails the run instead of hanging it.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: ingest, refresh or fleet")
	seed := flag.Uint64("seed", 1, "seed every request body is generated from")
	seconds := flag.Int("seconds", 15, "measured length of a run on the reference box; sizes the fixed work of a run")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
	damctl := flag.String("damctl", "", "path of the damctl binary under test")
	work := flag.String("work", ".bench_build", "directory for fixtures, run data and traces")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "loadbench: unknown --workload %q (want ingest, refresh or fleet)\n", *workload)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "loadbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "loadbench: --seconds must be at least 1")
		return 2
	}
	if *damctl == "" {
		fmt.Fprintln(os.Stderr, "loadbench: missing --damctl")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	e, err := newEnv(*damctl, *work, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		return 2
	}
	defer e.cleanup()

	res, err := e.runWorkload(ctx, *workload, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		if errors.Is(ctx.Err(), context.Canceled) {
			return 130
		}
		if res == nil {
			return 1
		}
	}
	res.Correct = err == nil && res.Failed == 0
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object of the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	layerSamples map[string]int // samples behind each per-layer metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one benchmark invocation: an untraced pass of the
// workload, and on a traced run also a traced pass of it plus traced
// passes of the two other workloads, so every per-layer metric is
// measured on the workload where its layer runs.
func (e *env) runWorkload(ctx context.Context, name string, seed uint64, seconds int, traced bool) (*result, error) {
	if err := refuseStrayDaemons(); err != nil {
		return nil, err
	}
	// Data copies left by a loadbench process killed outright; with no
	// daemon running, nothing uses them.
	if err := os.RemoveAll(filepath.Join(e.work, "run")); err != nil {
		return nil, err
	}
	share := 1.0
	if traced {
		share = tracedShare
	}
	base, err := e.runPass(ctx, name, seed, seconds, false, share)
	if err != nil {
		return nil, err
	}
	base.print(os.Stdout)
	res := &result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, m := range base.endToEnd() {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
		return res, e.checkExact(base)
	}

	tp, err := e.runPass(ctx, name, seed, seconds, true, share)
	if err != nil {
		return nil, err
	}
	tp.print(os.Stdout)
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	passes := map[string]*pass{name: tp}
	for _, other := range workloadOrder {
		if other == name {
			continue
		}
		p, err := e.runPass(ctx, other, seed, seconds, true, supplementaryShare)
		if err != nil {
			return nil, err
		}
		p.print(os.Stdout)
		res.Attempted += p.attempted
		res.Failed += p.failed
		passes[other] = p
	}
	layers, err := perLayer(os.Stdout, name, passes, base)
	printLayers(os.Stdout, layers)
	if err != nil {
		return res, err
	}
	res.layerSamples = map[string]int{}
	for _, m := range layers {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		res.layerSamples[m.name] = m.n
	}
	if err := e.writeTraces(name, passes); err != nil {
		return nil, err
	}
	if err := e.checkExact(base); err != nil {
		return res, err
	}
	for _, p := range passes {
		if err := e.checkExact(p); err != nil {
			return res, err
		}
	}
	return res, nil
}

// writeTraces keeps every traced pass's spans — loadbench's own client
// and direct-call spans and each daemon's /v1/traces ring — in one JSON
// file per workload under the work directory, for inspection after the
// run.
func (e *env) writeTraces(name string, passes map[string]*pass) error {
	dir := filepath.Join(e.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dump := map[string]any{}
	for w, p := range passes {
		dump[w] = map[string]any{"client": p.clientTraces, "daemons": p.daemonTraces}
	}
	data, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

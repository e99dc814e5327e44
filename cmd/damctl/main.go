// Command damctl drives the paper-reproduction harness: it regenerates
// every table and figure of the evaluation, generates datasets, and runs
// the estimation pipeline on CSV point data.
//
// Usage:
//
//	damctl fig    --fig 8|9a..9t|13a..13d|14a|14b [--scale 0.05]
//	damctl tables --table 3|4|5
//	damctl shapes                 # audit key figures against the paper's claims
//	damctl gen    --dataset Crime --out points.csv [--scale 0.05]
//	damctl report --in points.csv --d 15 --eps 3.5 [--mech DAM] [--shards 4 --out rep]
//	damctl aggregate [--out agg.json] reports.jsonl|shard.json|- ...
//	damctl estimate --in points.csv --d 15 --eps 3.5 [--mech DAM]
//	damctl estimate --from-aggregate agg.json
//	damctl estimate --from-url http://127.0.0.1:8080
//	damctl serve  [--addr 127.0.0.1:8080] [--cadence 2s] [--auth-token s3cret] [--mech DAM --d 15 --eps 3.5] [--data-dir state/] [--slow-ms 250] [--pprof] [--tls-cert c.pem --tls-key k.pem]
//	damctl supervise --member http://c1:8080 --member http://c2:8080 [--mech DAM --d 15 --eps 3.5] [--auth-token s3cret] [--slow-ms 250] [--tls-cert c.pem --tls-key k.pem]
//	damctl submit --url http://127.0.0.1:8080 [--retries 3] [--submission-id id] [--tls-ca ca.pem] rep-000.jsonl shard.json blob.dpa ...
//	damctl query  --url http://127.0.0.1:8080 --range 2,2,8,8 | --topk 5   (or --from-aggregate agg.json)
//	damctl demo                   # before/after ASCII density maps
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "fig":
		err = cmdFig(os.Args[2:])
	case "tables":
		err = cmdTables(os.Args[2:])
	case "shapes":
		err = cmdShapes(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "aggregate":
		err = cmdAggregate(os.Args[2:])
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "supervise":
		err = cmdSupervise(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "ablate":
		err = cmdAblate(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "damctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "damctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `damctl — Disk Area Mechanism reproduction harness

Commands:
  fig       regenerate a paper figure (--fig 8, 9a..9t, 13a..13d, 14a, 14b)
  tables    print a paper table (--table 3, 4 or 5)
  shapes    audit key figures against the paper's qualitative claims
  gen       generate a dataset to CSV (--dataset Crime|NYC|Normal|SZipf|MNormal)
  report    client stage: one LDP report per user (--in file [--shards k])
  aggregate aggregator stage: count reports / merge shards (files or '-')
  estimate  run the DP pipeline on CSV points (--in file --d 15 --eps 3.5),
            decode a merged aggregate (--from-aggregate agg.json), or
            fetch from a collector (--from-url http://host:port)
  serve     run the HTTP collector daemon (merges shards, re-estimates
            on --cadence with warm-started EM; --data-dir makes the
            merged state crash-safe and restarts recover it)
  supervise run the fleet supervisor: route submissions round-robin
            across --member collectors and serve the hierarchically
            merged estimate

            both daemons trace every request (W3C traceparent in, spans
            out on GET /v1/traces, X-Dpspatial-Trace-Id echoed back),
            log slow requests as JSON lines with --slow-ms, gate pprof
            behind --pprof, and terminate TLS with --tls-cert/--tls-key;
            client commands trust a private CA via --tls-ca
  submit    ship report/aggregate shard files to a collector or
            supervisor (--url; --retries survives transient failures)
  query     answer a range (--range x0,y0,x1,y1) or top-k (--topk k)
            query from a service (--url) or a merged aggregate file
            (--from-aggregate); both routes print identical answers
  ablate    ablation studies (--what shrink|post|baselines|rangequery)
  demo      ASCII before/after density maps on synthetic data

Shared harness flags: --scale (dataset size multiplier, default 0.05),
--repeats (averaging runs, default 2), --seed, --max-points, --no-lp-cal.
Trials run on GOMAXPROCS workers; output is identical for any value.`)
}

// harnessFlags registers the shared experiment configuration flags.
func harnessFlags(fs *flag.FlagSet) *harnessConfig {
	hc := &harnessConfig{}
	fs.Float64Var(&hc.scale, "scale", 0.05, "dataset size multiplier (1.0 = paper scale)")
	fs.IntVar(&hc.repeats, "repeats", 2, "repetitions to average (paper: 10)")
	fs.Uint64Var(&hc.seed, "seed", 2025, "random seed")
	fs.IntVar(&hc.maxPoints, "max-points", 40000, "cap on users per dataset part (0 = all)")
	fs.BoolVar(&hc.noLPCal, "no-lp-cal", false, "disable Local-Privacy calibration of SEM-Geo-I")
	return hc
}

type harnessConfig struct {
	scale     float64
	repeats   int
	seed      uint64
	maxPoints int
	noLPCal   bool
}

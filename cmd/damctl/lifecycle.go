package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dpspatial"
	"dpspatial/internal/collector"
)

// The report / aggregate / estimate subcommands drive the three-stage
// report lifecycle across process boundaries: `report` plays the client
// fleet (one LDP report per user), `aggregate` plays any number of
// aggregation shards (pure counting — it never rebuilds the mechanism),
// and `estimate --from-aggregate` plays the estimation service. File
// formats are line-oriented JSON so shards can stream over pipes; the
// same framing is the HTTP collector's wire format (see serve.go), so
// the metadata types live in internal/collector.

const (
	reportsFormat   = collector.ReportsFormat
	aggregateFormat = collector.AggregateFormat
)

// aggregateEnvelope is the aggregate file: the pipeline header plus the
// accumulated counts.
type aggregateEnvelope struct {
	collector.Pipeline
	Aggregate *dpspatial.Aggregate `json:"aggregate"`
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	in := fs.String("in", "", "input CSV with x,y columns")
	d := fs.Int("d", 15, "grid side length")
	eps := fs.Float64("eps", 3.5, "privacy budget")
	mech := fs.String("mech", "DAM", "mechanism: "+strings.Join(dpspatial.MechanismNames(), ", "))
	seed := fs.Uint64("seed", 1, "random seed")
	shards := fs.Int("shards", 1, "number of report shard files to write round-robin")
	out := fs.String("out", "", "output path (default stdout); with --shards k > 1, a prefix for <out>-000.jsonl ...")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing --in")
	}
	if *shards < 1 {
		return fmt.Errorf("--shards must be >= 1")
	}
	if *shards > 1 && *out == "" {
		return fmt.Errorf("--shards > 1 needs --out as a file prefix")
	}
	pts, err := readPointsCSV(*in)
	if err != nil {
		return err
	}
	dom, err := dpspatial.DomainOver(pts, *d)
	if err != nil {
		return err
	}
	truth := dpspatial.HistFromPoints(dom, pts)

	hdrPtr, rm, err := dpspatial.NewCollectorPipeline(*mech, dom, *eps)
	if err != nil {
		return err
	}
	hdr := *hdrPtr
	hdr.Format = reportsFormat

	writers := make([]*bufio.Writer, *shards)
	if *shards == 1 && *out == "" {
		writers[0] = bufio.NewWriter(os.Stdout)
	} else {
		for s := range writers {
			path := *out
			if *shards > 1 {
				path = fmt.Sprintf("%s-%03d.jsonl", *out, s)
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			writers[s] = bufio.NewWriter(f)
		}
	}
	hdrLine, err := json.Marshal(&hdr)
	if err != nil {
		return err
	}
	for _, w := range writers {
		fmt.Fprintf(w, "%s\n", hdrLine)
	}

	// One report per user, drawn in the same cell-major order (and from
	// the same seeded stream) as the in-process Estimate pipeline, so the
	// sharded CLI path reproduces it exactly.
	r := dpspatial.NewRand(*seed)
	enc := make([]*json.Encoder, len(writers))
	for i, w := range writers {
		enc[i] = json.NewEncoder(w)
	}
	user := 0
	for i, c := range truth.Mass {
		for k := 0; k < int(c); k++ {
			rep, err := rm.Report(i, r)
			if err != nil {
				return err
			}
			if err := enc[user%len(enc)].Encode(&rep); err != nil {
				return err
			}
			user++
		}
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func cmdAggregate(args []string) error {
	fs := flag.NewFlagSet("aggregate", flag.ExitOnError)
	out := fs.String("out", "", "output aggregate JSON path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inputs := fs.Args()
	if len(inputs) == 0 {
		inputs = []string{"-"} // aggregate a report stream from stdin
	}

	var hdr *collector.Pipeline
	var agg *dpspatial.Aggregate
	for _, path := range inputs {
		inHdr, inAgg, err := consumeInput(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if hdr == nil {
			hdr, agg = inHdr, inAgg
			continue
		}
		if err := hdr.Compatible(inHdr); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := agg.Merge(inAgg); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}

	env := aggregateEnvelope{Pipeline: *hdr, Aggregate: agg}
	env.Format = aggregateFormat
	outBytes, err := json.Marshal(&env)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Println(string(outBytes))
		return nil
	}
	return os.WriteFile(*out, append(outBytes, '\n'), 0o644)
}

// consumeInput reads one aggregation input — a reports file/stream (each
// report counted into a fresh aggregate) or an already-aggregated shard
// (decoded as-is) — and returns its header and aggregate.
func consumeInput(path string) (*collector.Pipeline, *dpspatial.Aggregate, error) {
	var rd io.Reader
	if path == "-" {
		rd = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		rd = f
	}
	br := bufio.NewReader(rd)
	first, err := br.ReadBytes('\n')
	if err != nil && len(first) == 0 {
		return nil, nil, fmt.Errorf("empty input")
	}

	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(first, &probe); err != nil {
		return nil, nil, fmt.Errorf("not a reports or aggregate file: %v", err)
	}
	switch probe.Format {
	case reportsFormat:
		var hdr collector.Pipeline
		if err := json.Unmarshal(first, &hdr); err != nil {
			return nil, nil, err
		}
		planes := make([][]float64, len(hdr.Shape))
		for i, n := range hdr.Shape {
			planes[i] = make([]float64, n)
		}
		agg := &dpspatial.Aggregate{Scheme: hdr.Scheme, Planes: planes}
		if err := collector.ReadReports(br, agg); err != nil {
			return nil, nil, err
		}
		return &hdr, agg, nil
	case aggregateFormat:
		rest, err := io.ReadAll(br)
		if err != nil {
			return nil, nil, err
		}
		var env aggregateEnvelope
		if err := json.Unmarshal(append(first, rest...), &env); err != nil {
			return nil, nil, err
		}
		if env.Aggregate == nil {
			return nil, nil, fmt.Errorf("aggregate file has no aggregate")
		}
		hdr := env.Pipeline
		return &hdr, env.Aggregate, nil
	default:
		return nil, nil, fmt.Errorf("unknown format %q", probe.Format)
	}
}

// estimateFromAggregateFile rebuilds the estimator recorded in an
// aggregate envelope and decodes its counts.
func estimateFromAggregateFile(path string) (*dpspatial.Histogram, error) {
	hdr, agg, err := consumeInput(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rm, err := dpspatial.NewMechanismFromPipeline(hdr)
	if err != nil {
		return nil, err
	}
	return rm.EstimateFromAggregate(agg)
}

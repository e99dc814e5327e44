package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
)

// The serve / submit subcommands wrap the report lifecycle in a network
// service: `serve` runs the long-running HTTP collector daemon
// (internal/collector) and `submit` ships report or aggregate shard
// files to it. `estimate --from-url` closes the loop by fetching the
// merged estimate back.

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cadence := fs.Duration("cadence", 2*time.Second, "background re-estimate cadence (0 = decode only on demand)")
	authToken := fs.String("auth-token", "", "shared bearer-token secret; every endpoint except /healthz requires it")
	dataDir := fs.String("data-dir", "", "durable state directory: snapshots + write-ahead log; a restart with the same directory recovers the merged state and the recent-ack log")
	snapshotEvery := fs.Int("snapshot-every", 0, "WAL records between snapshots with --data-dir (0 = default, negative = snapshot only at shutdown)")
	df := addDaemonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := df.validate(); err != nil {
		return err
	}
	pipeline, mech, err := df.pipeline()
	if err != nil {
		return err
	}
	cfg := collector.Config{
		Mechanism:     mech,
		Pipeline:      pipeline,
		Build:         adoptMechanism,
		Cadence:       *cadence,
		AuthToken:     *authToken,
		DisableTraces: df.tracingDisabled(),
		TraceCapacity: df.traceCapacity(),
		SlowLog:       df.slowLogger(),
		EnablePprof:   *df.pprof,
		SnapshotEvery: *snapshotEvery,
	}
	if *dataDir != "" {
		if cfg.Store, err = durable.Open(*dataDir); err != nil {
			return err
		}
	}
	c, err := collector.New(cfg)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Close()
		}
		return err
	}
	if cfg.Store != nil {
		ds := cfg.Store.Stats()
		fmt.Printf("damctl: durable state in %s (snapshot seq %d, %d WAL records replayed in %dms)\n",
			*dataDir, ds.SnapshotSeq, ds.RecordsReplayed, ds.RecoveryMillis)
	}
	return df.runDaemon(*addr, c, cfg.Store, "collector", fmt.Sprintf("cadence %s", *cadence))
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	url := fs.String("url", "", "collector or supervisor base URL, e.g. http://127.0.0.1:8080")
	authToken := fs.String("auth-token", "", "bearer token for a collector running with --auth-token")
	retries := fs.Int("retries", 3, "retry a shard this many times on transient failures (5xx / connection refused), with doubling jittered backoff")
	backoff := fs.Duration("retry-backoff", 100*time.Millisecond, "backoff window before the first retry")
	submissionID := fs.String("submission-id", "", "explicit idempotency ID (single file only): re-running the same submission under the same ID merges exactly once, across restarts of either side")
	tlsCA := fs.String("tls-ca", "", "PEM CA bundle to trust for an https:// --url (e.g. the fleet's self-signed --tls-cert)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("missing --url")
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no shard files to submit")
	}
	if *submissionID != "" && len(files) > 1 {
		return fmt.Errorf("--submission-id names ONE logical submission; got %d files", len(files))
	}
	client := dpspatial.NewCollectorClient(*url)
	client.AuthToken = *authToken
	client.MaxRetries = *retries
	client.RetryBackoff = *backoff
	httpc, err := clientForCA(*tlsCA)
	if err != nil {
		return err
	}
	client.HTTPClient = httpc
	ctx := context.Background()
	for _, path := range files {
		id := *submissionID
		if id == "" {
			id = collector.NewSubmissionID()
		}
		resp, err := submitFile(ctx, client, path, id)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		via := ""
		if resp.Member != "" {
			via = fmt.Sprintf(" via %s", resp.Member)
		}
		dup := ""
		if resp.Duplicate {
			dup = " (duplicate: original ack replayed)"
		}
		tr := ""
		if resp.TraceID != "" {
			tr = fmt.Sprintf(" (trace %s)", resp.TraceID)
		}
		fmt.Printf("%s: merged %g reports%s (total %g, generation %d)%s%s\n",
			path, resp.Reports, via, resp.TotalReports, resp.Generation, dup, tr)
	}
	return nil
}

// submitFile sniffs a shard file's format — a raw DPA2 blob, an
// aggregate envelope, or a reports stream — and ships it under the
// given submission ID.
func submitFile(ctx context.Context, client *dpspatial.CollectorClient, path, id string) (*collector.SubmitResponse, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("DPA")) {
		// Binary aggregates carry no pipeline metadata; the collector
		// must already be locked to a scheme (or adopt from another
		// submission first).
		return client.SubmitAggregateBlobWithID(ctx, data, nil, id)
	}
	firstLine := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		firstLine = data[:i]
	}
	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(firstLine, &probe); err != nil {
		return nil, fmt.Errorf("not a reports, aggregate or DPA shard file: %v", err)
	}
	switch probe.Format {
	case aggregateFormat:
		var env aggregateEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, err
		}
		if env.Aggregate == nil {
			return nil, fmt.Errorf("aggregate file has no aggregate")
		}
		blob, err := env.Aggregate.MarshalBinary()
		if err != nil {
			return nil, err
		}
		hdr := env.Pipeline
		return client.SubmitAggregateBlobWithID(ctx, blob, &hdr, id)
	case reportsFormat:
		return client.SubmitReportStreamWithID(ctx, bytes.NewReader(data), id)
	default:
		return nil, fmt.Errorf("unknown format %q", probe.Format)
	}
}

// estimateFromURL fetches the current histogram from a collector or a
// fleet supervisor (same protocol, so the flag is transparent). caPath
// optionally names a PEM CA bundle to trust for https:// URLs.
func estimateFromURL(url, authToken, caPath string) (*dpspatial.Histogram, error) {
	client := dpspatial.NewCollectorClient(url)
	client.AuthToken = authToken
	httpc, err := clientForCA(caPath)
	if err != nil {
		return nil, err
	}
	client.HTTPClient = httpc
	est, _, err := client.Estimate(context.Background())
	return est, err
}

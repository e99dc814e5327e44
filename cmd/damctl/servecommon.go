package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/trace"
)

// What the two daemon subcommands (serve, supervise) share: the
// pre-built mechanism flags, observability — slow-request logging,
// tracing buffer, gated pprof — and TLS termination, plus
// runDaemon, the one way either daemon runs. Kept in one place so both
// daemons speak the same operational dialect.

type daemonFlags struct {
	mech       *string
	d          *int
	eps        *float64
	minX, minY *float64
	side       *float64
	slowMs     *float64
	traceBuf   *int
	pprof      *bool
	tlsCert    *string
	tlsKey     *string
}

func addDaemonFlags(fs *flag.FlagSet) *daemonFlags {
	return &daemonFlags{
		mech: fs.String("mech", "",
			"pre-build this mechanism at startup (default: adopt from the first submission): "+strings.Join(dpspatial.MechanismNames(), ", ")),
		d:    fs.Int("d", 15, "grid side length (with --mech)"),
		eps:  fs.Float64("eps", 3.5, "privacy budget (with --mech)"),
		minX: fs.Float64("minx", 0, "domain lower-left x (with --mech)"),
		minY: fs.Float64("miny", 0, "domain lower-left y (with --mech)"),
		side: fs.Float64("side", 1, "domain side length (with --mech)"),
		slowMs: fs.Float64("slow-ms", -1,
			"log requests slower than this many milliseconds to stderr, one JSON object per line with its trace ID (0 = every request, negative = disabled)"),
		traceBuf: fs.Int("trace-buffer", 0,
			"completed traces retained in memory for GET /v1/traces (0 = default, negative = disable tracing)"),
		pprof: fs.Bool("pprof", false,
			"mount net/http/pprof under /debug/pprof/ (behind --auth-token like the data endpoints)"),
		tlsCert: fs.String("tls-cert", "",
			"serve HTTPS with this PEM certificate (requires --tls-key)"),
		tlsKey: fs.String("tls-key", "",
			"PEM private key for --tls-cert"),
	}
}

// pipeline builds the --mech mechanism and its pinned pipeline, or
// returns nils when --mech is unset and the tier adopts its mechanism
// from the first submission instead.
func (d *daemonFlags) pipeline() (*collector.Pipeline, collector.Estimator, error) {
	if *d.mech == "" {
		return nil, nil, nil
	}
	dom, err := dpspatial.NewDomain(*d.minX, *d.minY, *d.side, *d.d)
	if err != nil {
		return nil, nil, err
	}
	p, m, err := dpspatial.NewCollectorPipeline(*d.mech, dom, *d.eps)
	if err != nil {
		return nil, nil, err
	}
	return p, m, nil
}

// adoptMechanism is both tiers' Build hook: it rebuilds the mechanism
// from the pipeline metadata of the first submission (a report stream's
// header line, or the X-Dpspatial-Pipeline header on a binary aggregate
// POST).
func adoptMechanism(p *collector.Pipeline) (collector.Estimator, error) {
	return dpspatial.NewMechanismFromPipeline(p)
}

// slowLogger builds the slow-request logger the flags describe, or nil
// when disabled.
func (d *daemonFlags) slowLogger() *trace.SlowLogger {
	if *d.slowMs < 0 {
		return nil
	}
	return &trace.SlowLogger{
		W:         os.Stderr,
		Threshold: time.Duration(*d.slowMs * float64(time.Millisecond)),
	}
}

// tracingDisabled reports whether --trace-buffer asked tracing off.
func (d *daemonFlags) tracingDisabled() bool { return *d.traceBuf < 0 }

// traceCapacity is the ring capacity to configure (0 = package default).
func (d *daemonFlags) traceCapacity() int {
	if *d.traceBuf < 0 {
		return 0
	}
	return *d.traceBuf
}

// validate rejects inconsistent flag combinations early, before a
// listener is bound.
func (d *daemonFlags) validate() error {
	if (*d.tlsCert == "") != (*d.tlsKey == "") {
		return fmt.Errorf("--tls-cert and --tls-key must be given together")
	}
	if *d.tlsCert != "" {
		// Fail on an unreadable or mismatched pair now rather than at
		// the first handshake.
		if _, err := tls.LoadX509KeyPair(*d.tlsCert, *d.tlsKey); err != nil {
			return fmt.Errorf("loading TLS key pair: %w", err)
		}
	}
	return nil
}

// scheme is the URL scheme the daemon will answer on.
func (d *daemonFlags) scheme() string {
	if *d.tlsCert != "" {
		return "https"
	}
	return "http"
}

// serve runs the HTTP server on ln, terminating TLS when a cert pair
// was configured.
func (d *daemonFlags) serve(srv *http.Server, ln net.Listener) error {
	if *d.tlsCert != "" {
		return srv.ServeTLS(ln, *d.tlsCert, *d.tlsKey)
	}
	return srv.Serve(ln)
}

// daemon is a serving tier as runDaemon runs it: *collector.Collector
// or *fleet.Supervisor.
type daemon interface {
	http.Handler
	Start()
	Close()
}

// runDaemon serves t on addr, announcing "damctl: <name> listening on
// <url> (<detail>)" once the listener is bound, until the server fails
// or SIGINT or SIGTERM arrives — then it shuts the server down. Either
// way it closes t and then st (nil for an in-memory tier), in that
// order: a durable collector's Close writes its final snapshot, which
// must land before the store's WAL closes.
func (d *daemonFlags) runDaemon(addr string, t daemon, st *durable.Store, name, detail string) error {
	if st != nil {
		defer st.Close()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	t.Start()
	defer t.Close()
	srv := &http.Server{Handler: t}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- d.serve(srv, ln) }()
	base := d.scheme() + "://" + ln.Addr().String()
	fmt.Printf("damctl: %s listening on %s (%s)\n", name, base, detail)
	fmt.Printf("damctl: metrics exposition at %s%s\n", base, collector.MetricsPath)
	if !d.tracingDisabled() {
		fmt.Printf("damctl: trace buffer at %s%s\n", base, collector.TracesPath)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Println("damctl: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}

// clientForCA builds the http.Client for the client-side
// subcommands: with a --tls-ca file the returned client trusts exactly
// that CA (for fleets serving a self-signed or private-CA certificate);
// with an empty path it returns nil, meaning http.DefaultClient.
func clientForCA(caPath string) (*http.Client, error) {
	if caPath == "" {
		return nil, nil
	}
	pem, err := os.ReadFile(caPath)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("%s: no PEM certificates found", caPath)
	}
	return &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: pool},
		},
	}, nil
}

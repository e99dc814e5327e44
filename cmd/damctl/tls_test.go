package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"flag"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpspatial"
	"dpspatial/internal/collector"
)

// writeLoopbackCert generates a self-signed ECDSA certificate for
// 127.0.0.1 / localhost and writes the PEM pair into dir. The cert file
// doubles as the CA bundle a client trusts via --tls-ca.
func writeLoopbackCert(t *testing.T, dir string) (certPath, keyPath string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "dpspatial-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		DNSNames:              []string{"localhost"},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certPath = filepath.Join(dir, "cert.pem")
	keyPath = filepath.Join(dir, "key.pem")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	if err := os.WriteFile(certPath, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	return certPath, keyPath
}

// parseDaemonFlags runs the shared daemon flag set over args, as the
// serve/supervise subcommands would.
func parseDaemonFlags(t *testing.T, args ...string) *daemonFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	df := addDaemonFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return df
}

func TestTLSFlagValidation(t *testing.T) {
	certPath, keyPath := writeLoopbackCert(t, t.TempDir())

	if err := parseDaemonFlags(t, "--tls-cert", certPath).validate(); err == nil {
		t.Fatal("--tls-cert without --tls-key validated")
	}
	if err := parseDaemonFlags(t, "--tls-key", keyPath).validate(); err == nil {
		t.Fatal("--tls-key without --tls-cert validated")
	}
	if err := parseDaemonFlags(t, "--tls-cert", certPath, "--tls-key", certPath).validate(); err == nil {
		t.Fatal("mismatched key pair validated")
	}
	// Slow-request lines are always JSON, so there is no --log-format.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addDaemonFlags(fs)
	if err := fs.Parse([]string{"--log-format", "json"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -log-format") {
		t.Fatalf("--log-format parsed with error %v, want an unknown-flag error", err)
	}
	df := parseDaemonFlags(t, "--tls-cert", certPath, "--tls-key", keyPath)
	if err := df.validate(); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
	if got := df.scheme(); got != "https" {
		t.Fatalf("scheme = %q, want https", got)
	}
	if got := parseDaemonFlags(t).scheme(); got != "http" {
		t.Fatalf("plain scheme = %q, want http", got)
	}
}

// TestTLSServeLoopback terminates TLS exactly like `damctl serve
// --tls-cert --tls-key` and round-trips a submission plus the estimate
// through a client built with --tls-ca.
func TestTLSServeLoopback(t *testing.T) {
	certPath, keyPath := writeLoopbackCert(t, t.TempDir())
	df := parseDaemonFlags(t, "--tls-cert", certPath, "--tls-key", keyPath)
	if err := df.validate(); err != nil {
		t.Fatal(err)
	}

	dom, err := dpspatial.NewDomain(0, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, rm, err := dpspatial.NewCollectorPipeline("DAM", dom, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: c}
	defer srv.Close()
	go func() { _ = df.serve(srv, ln) }()

	agg := rm.NewAggregate()
	r := dpspatial.NewRand(11)
	for i := 0; i < rm.NumInputs(); i++ {
		rep, err := rm.Report(i, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	client := dpspatial.NewCollectorClient("https://" + ln.Addr().String())
	client.HTTPClient, err = clientForCA(certPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resp, err := client.SubmitAggregateBlobWithID(ctx, blob, pipeline, collector.NewSubmissionID())
	if err != nil {
		t.Fatalf("TLS submit: %v", err)
	}
	if resp.Reports != agg.N {
		t.Fatalf("merged %g reports, want %g", resp.Reports, agg.N)
	}
	if resp.TraceID == "" {
		t.Fatal("TLS submit ack carries no trace ID")
	}

	served, _, err := client.Estimate(ctx)
	if err != nil {
		t.Fatalf("TLS estimate: %v", err)
	}
	local, err := rm.EstimateFromAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(served.Mass) != len(local.Mass) {
		t.Fatalf("estimate size %d, want %d", len(served.Mass), len(local.Mass))
	}
	for i := range served.Mass {
		if served.Mass[i] != local.Mass[i] {
			t.Fatalf("served estimate diverges from in-process decode at cell %d", i)
		}
	}

	// A plain-HTTP client must NOT get through: the listener only
	// terminates TLS.
	plain := dpspatial.NewCollectorClient("http://" + ln.Addr().String())
	if _, _, err := plain.Estimate(ctx); err == nil {
		t.Fatal("plain HTTP request succeeded against a TLS listener")
	}

	// An https client without the CA must fail verification.
	noCA := dpspatial.NewCollectorClient("https://" + ln.Addr().String())
	if _, _, err := noCA.Estimate(ctx); err == nil ||
		!strings.Contains(err.Error(), "certificate") {
		t.Fatalf("want certificate verification failure, got %v", err)
	}
}

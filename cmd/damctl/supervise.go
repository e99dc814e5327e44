package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"dpspatial/internal/fleet"
)

// The supervise subcommand runs the fleet-supervisor daemon
// (internal/fleet): it fronts N `damctl serve` collectors, routes
// submissions across them, and serves the estimate decoded from the
// hierarchical merge of every member's aggregate. It speaks the
// collector wire protocol, so `damctl submit` and `damctl estimate
// --from-url` point at it exactly like at a single collector.

// memberList collects repeated --member flags (comma-separating also
// works: --member http://a:8080,http://b:8080).
type memberList []string

func (m *memberList) String() string { return strings.Join(*m, ",") }

func (m *memberList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			*m = append(*m, u)
		}
	}
	return nil
}

func cmdSupervise(args []string) error {
	fs := flag.NewFlagSet("supervise", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address")
	var members memberList
	fs.Var(&members, "member", "downstream collector base URL (repeat or comma-separate for a fleet)")
	cadence := fs.Duration("cadence", 2*time.Second, "member pull + merge + warm-re-estimate cadence; each pull also sets the members' health (0 = pull only on demand)")
	authToken := fs.String("auth-token", "", "shared bearer-token secret: required on our endpoints and presented to members")
	df := addDaemonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(members) == 0 {
		return fmt.Errorf("missing --member (at least one collector URL)")
	}
	if err := df.validate(); err != nil {
		return err
	}
	pipeline, mech, err := df.pipeline()
	if err != nil {
		return err
	}
	sup, err := fleet.New(fleet.Config{
		Members:       members,
		Mechanism:     mech,
		Pipeline:      pipeline,
		Build:         adoptMechanism,
		Cadence:       *cadence,
		AuthToken:     *authToken,
		DisableTraces: df.tracingDisabled(),
		TraceCapacity: df.traceCapacity(),
		SlowLog:       df.slowLogger(),
		EnablePprof:   *df.pprof,
	})
	if err != nil {
		return err
	}
	return df.runDaemon(*addr, sup, nil, "fleet supervisor",
		fmt.Sprintf("%d members, cadence %s", len(members), *cadence))
}

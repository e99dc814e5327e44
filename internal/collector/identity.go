package collector

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
)

// A tier's identity is the mechanism it decodes with and the pipeline it
// is pinned to. The Engine holds both and sets them once: at start from
// the tier's Config, or by adopting the candidate mechanism of the
// first submission that validated in full. One rule covers every
// submission, at both tiers and in recovery: Resolve checks its pipeline
// metadata against the pin, or builds a candidate while there is none,
// and Adopt installs the candidate. The pin never changes once set, so
// a header that passed it stays valid.

// noReports refuses a read of a state that holds no reports yet.
var noReports = &Refusal{Status: http.StatusConflict, Err: errors.New("no reports merged yet")}

// unadopted refuses a read, and a submission without pipeline metadata,
// before the tier adopted a mechanism.
func (e *Engine) unadopted() error {
	return &Refusal{Status: http.StatusConflict,
		Err: fmt.Errorf("%s has no mechanism yet; submit a shard with pipeline metadata first", e.cfg.Tier)}
}

// Identity returns the tier's mechanism and its pin, both nil before
// adoption.
func (e *Engine) Identity() (Estimator, *Pipeline) {
	e.idMu.Lock()
	defer e.idMu.Unlock()
	return e.mech, e.pin
}

// scheme is the tier's report scheme, empty before adoption.
func (e *Engine) scheme() string {
	if mech, _ := e.Identity(); mech != nil {
		return mech.Scheme()
	}
	return ""
}

// Resolve returns the mechanism a submission carrying pipeline metadata
// p (nil when it carries none) validates against: the installed one,
// once p passed the pin, or before adoption a candidate built from p
// (candidate=true). A candidate is NOT installed here: the tier adopts
// it only after the whole submission validated, so a refused shard can
// never lock the tier to its mechanism.
func (e *Engine) Resolve(p *Pipeline) (mech Estimator, candidate bool, err error) {
	mech, pin := e.Identity()
	if mech != nil {
		if p != nil {
			err = pin.Compatible(p)
		}
		return mech, false, err
	}
	if p == nil {
		return nil, false, e.unadopted()
	}
	if mech, err = e.cfg.Build(p); err != nil {
		return nil, false, fmt.Errorf("building mechanism from pipeline: %w", err)
	}
	if p.Scheme != "" && mech.Scheme() != p.Scheme {
		return nil, false, fmt.Errorf("rebuilt mechanism scheme %q does not match submitted scheme %q", mech.Scheme(), p.Scheme)
	}
	if p.Shape != nil && !slices.Equal(mech.ReportShape(), p.Shape) {
		return nil, false, fmt.Errorf("rebuilt mechanism shape %v does not match submitted shape %v", mech.ReportShape(), p.Shape)
	}
	return mech, true, nil
}

// Adopt installs a candidate from Resolve as the tier's identity, pinned
// to a copy of p whose scheme and shape are the mechanism's own. When a
// concurrent submission adopted first, p must pass that pin instead; a
// compatible pin rebuilds the same mechanism, so the candidate's
// validation holds for the installed one.
func (e *Engine) Adopt(mech Estimator, p *Pipeline) error {
	e.idMu.Lock()
	defer e.idMu.Unlock()
	if e.mech != nil {
		return e.pin.Compatible(p)
	}
	pin := *p
	pin.Scheme, pin.Shape = mech.Scheme(), mech.ReportShape()
	e.mech, e.pin = mech, &pin
	return nil
}

package collector

import (
	"crypto/subtle"
	"errors"
	"net/http"
	"strings"
)

// errUnauthorized is the body of every 401; it deliberately does not say
// whether a token was missing or merely wrong.
var errUnauthorized = errors.New("missing or invalid bearer token")

// Shared-secret bearer-token auth for the collector and fleet-supervisor
// endpoints. One token is shared across a deployment (clients, the
// supervisor, and every fleet member), set with `--auth-token` on the
// daemons and Client.AuthToken on the client side. /healthz stays open so
// load balancers and liveness probes need no secret — it exposes only the
// tier's role and scheme.

// AuthorizeBearer reports whether the request carries the expected
// bearer token. The comparison is constant-time so the token cannot be
// recovered byte-by-byte through timing.
func AuthorizeBearer(r *http.Request, token string) bool {
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) < len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(strings.TrimSpace(h[len(prefix):])), []byte(token)) == 1
}

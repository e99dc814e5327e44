package collector

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rangequery"
)

// GET /v1/query serves analyst queries straight from the collector's
// merged state, so downstream consumers don't have to pull the full
// histogram to answer one rectangle:
//
//	GET /v1/query?type=range&x0=2&y0=2&x1=8&y1=8   rectangle total
//	GET /v1/query?type=topk&k=5                    heavy-hitter cells
//
// Range queries are answered from the mechanism's decoded quadtree when
// it has one (TreeEstimator — AHEAD's consistent hierarchy, in estimated
// count units) and from the estimate histogram otherwise (probability
// units). Top-k always ranks the estimate histogram. Both decodes are
// cached per generation and invalidated by the next merge, and the
// answer is byte-identical to AnswerQueryFromAggregate on the same
// merged shards in process — the fleet supervisor serves the same
// endpoint over the hierarchical member merge, so the invariant holds
// one tier up for any member count and arrival interleaving.

// TreeEstimator is an Estimator whose aggregate decodes into a
// consistent quadtree (the AHEAD family): range queries are answered
// through the tree's cover decomposition — a large rectangle is a
// handful of high-level nodes instead of hundreds of noisy cells.
type TreeEstimator interface {
	Estimator
	EstimateTreeFromAggregate(agg *fo.Aggregate) (*rangequery.Quadtree, *grid.Hist2D, error)
}

// Query types and answer bases of the /v1/query wire contract.
const (
	QueryTypeRange = "range"
	QueryTypeTopK  = "topk"

	// QueryBasisTree marks a range answer summed over the mechanism's
	// consistent quadtree, in estimated count units; QueryBasisHistogram
	// marks an answer over the normalised estimate histogram, in
	// probability units.
	QueryBasisTree      = "tree"
	QueryBasisHistogram = "histogram"
)

// QueryRequest is the parsed GET /v1/query parameter set.
type QueryRequest struct {
	// Type is QueryTypeRange or QueryTypeTopK.
	Type string
	// Range is the inclusive cell rectangle of a range query.
	Range rangequery.Query
	// K is the cell count of a top-k query.
	K int
}

// ParseQueryRequest decodes the /v1/query URL parameters. Rectangle
// bounds are validated against the grid later, when the domain is known.
func ParseQueryRequest(v url.Values) (QueryRequest, error) {
	switch typ := v.Get("type"); typ {
	case QueryTypeRange:
		req := QueryRequest{Type: QueryTypeRange}
		for _, f := range []struct {
			name string
			dst  *int
		}{
			{"x0", &req.Range.X0}, {"y0", &req.Range.Y0},
			{"x1", &req.Range.X1}, {"y1", &req.Range.Y1},
		} {
			s := v.Get(f.name)
			if s == "" {
				return QueryRequest{}, fmt.Errorf("range query needs x0, y0, x1, y1 (missing %s)", f.name)
			}
			n, err := strconv.Atoi(s)
			if err != nil {
				return QueryRequest{}, fmt.Errorf("bad %s: %v", f.name, err)
			}
			*f.dst = n
		}
		return req, nil
	case QueryTypeTopK:
		s := v.Get("k")
		if s == "" {
			return QueryRequest{}, fmt.Errorf("topk query needs k")
		}
		k, err := strconv.Atoi(s)
		if err != nil {
			return QueryRequest{}, fmt.Errorf("bad k: %v", err)
		}
		if k < 1 {
			return QueryRequest{}, fmt.Errorf("k must be >= 1, got %d", k)
		}
		return QueryRequest{Type: QueryTypeTopK, K: k}, nil
	case "":
		return QueryRequest{}, fmt.Errorf("missing type (%s or %s)", QueryTypeRange, QueryTypeTopK)
	default:
		return QueryRequest{}, fmt.Errorf("unknown query type %q", typ)
	}
}

// Values renders the request back into URL parameters — the client side
// of ParseQueryRequest.
func (q QueryRequest) Values() (url.Values, error) {
	v := url.Values{}
	switch q.Type {
	case QueryTypeRange:
		v.Set("type", QueryTypeRange)
		v.Set("x0", strconv.Itoa(q.Range.X0))
		v.Set("y0", strconv.Itoa(q.Range.Y0))
		v.Set("x1", strconv.Itoa(q.Range.X1))
		v.Set("y1", strconv.Itoa(q.Range.Y1))
	case QueryTypeTopK:
		v.Set("type", QueryTypeTopK)
		v.Set("k", strconv.Itoa(q.K))
	default:
		return nil, fmt.Errorf("unknown query type %q", q.Type)
	}
	return v, nil
}

// RangeAnswer is the range block of a QueryResponse: the echoed
// rectangle and its total in the units of the response basis.
type RangeAnswer struct {
	X0    int     `json:"x0"`
	Y0    int     `json:"y0"`
	X1    int     `json:"x1"`
	Y1    int     `json:"y1"`
	Value float64 `json:"value"`
}

// QueryCell is one ranked cell of a top-k answer.
type QueryCell struct {
	X     int     `json:"x"`
	Y     int     `json:"y"`
	Index int     `json:"index"`
	Mass  float64 `json:"mass"`
}

// TopKAnswer is the top-k block of a QueryResponse: the K (clamped to
// the cell count) heaviest estimate cells, descending by mass with ties
// broken by ascending index — a total order, so the ranking is
// deterministic.
type TopKAnswer struct {
	K     int         `json:"k"`
	Cells []QueryCell `json:"cells"`
}

// QueryResponse is the JSON envelope GET /v1/query serves. Exactly one
// of Range and TopK is set, matching Type.
type QueryResponse struct {
	Type       string       `json:"type"`
	Scheme     string       `json:"scheme"`
	Basis      string       `json:"basis"`
	Generation uint64       `json:"generation"`
	Reports    float64      `json:"reports"`
	Range      *RangeAnswer `json:"range,omitempty"`
	TopK       *TopKAnswer  `json:"topk,omitempty"`
}

// BadQueryError marks a query refused for client-side reasons — an
// out-of-bounds rectangle, an impossible parameter — so the HTTP tiers
// answer 400 instead of a server-state status.
type BadQueryError struct{ Err error }

func (e *BadQueryError) Error() string { return e.Err.Error() }
func (e *BadQueryError) Unwrap() error { return e.Err }

// AnswerQuery resolves a parsed query against decoded state: the
// quadtree when the mechanism decodes one and the request is a range
// query (tree non-nil, est ignored), the estimate histogram otherwise.
// Both HTTP tiers and the in-process reference route through it, so the
// answer arithmetic cannot diverge between them.
func AnswerQuery(req QueryRequest, scheme string, gen uint64, n float64, tree *rangequery.Quadtree, est *grid.Hist2D) (*QueryResponse, error) {
	resp := &QueryResponse{Type: req.Type, Scheme: scheme, Generation: gen, Reports: n}
	switch req.Type {
	case QueryTypeRange:
		if tree != nil {
			if err := req.Range.Validate(tree.D); err != nil {
				return nil, &BadQueryError{Err: err}
			}
			v, err := tree.QueryValue(req.Range)
			if err != nil {
				return nil, err
			}
			resp.Basis = QueryBasisTree
			resp.Range = &RangeAnswer{X0: req.Range.X0, Y0: req.Range.Y0, X1: req.Range.X1, Y1: req.Range.Y1, Value: v}
			return resp, nil
		}
		if err := req.Range.Validate(est.Dom.D); err != nil {
			return nil, &BadQueryError{Err: err}
		}
		v, err := rangequery.Answer(est, req.Range)
		if err != nil {
			return nil, err
		}
		resp.Basis = QueryBasisHistogram
		resp.Range = &RangeAnswer{X0: req.Range.X0, Y0: req.Range.Y0, X1: req.Range.X1, Y1: req.Range.Y1, Value: v}
		return resp, nil
	case QueryTypeTopK:
		resp.Basis = QueryBasisHistogram
		resp.TopK = topKCells(est, req.K)
		return resp, nil
	default:
		return nil, &BadQueryError{Err: fmt.Errorf("unknown query type %q", req.Type)}
	}
}

// topKCells ranks the estimate's cells by descending mass, ties by
// ascending index.
func topKCells(est *grid.Hist2D, k int) *TopKAnswer {
	n := len(est.Mass)
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if est.Mass[ia] != est.Mass[ib] {
			return est.Mass[ia] > est.Mass[ib]
		}
		return ia < ib
	})
	cells := make([]QueryCell, k)
	for i := 0; i < k; i++ {
		idx := order[i]
		c := est.Dom.CellAt(idx)
		cells[i] = QueryCell{X: c.X, Y: c.Y, Index: idx, Mass: est.Mass[idx]}
	}
	return &TopKAnswer{K: k, Cells: cells}
}

// AnswerQueryFromAggregate answers a query in process from a merged
// aggregate — the reference both HTTP tiers are byte-identical to (their
// Generation field reflects service state and differs; the answer blocks
// do not). `damctl query --from-aggregate` and the byte-identity tests
// call it.
func AnswerQueryFromAggregate(mech Estimator, agg *fo.Aggregate, req QueryRequest) (*QueryResponse, error) {
	if te, ok := mech.(TreeEstimator); ok && req.Type == QueryTypeRange {
		tree, _, err := te.EstimateTreeFromAggregate(agg)
		if err != nil {
			return nil, err
		}
		return AnswerQuery(req, mech.Scheme(), 0, agg.N, tree, nil)
	}
	est, err := mech.EstimateFromAggregate(agg)
	if err != nil {
		return nil, err
	}
	return AnswerQuery(req, mech.Scheme(), 0, agg.N, nil, est)
}

// Query answers a range or top-k query against the collector's (or
// fleet supervisor's) current merged state.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	v, err := req.Values()
	if err != nil {
		return nil, err
	}
	var resp QueryResponse
	if err := c.do(ctx, http.MethodGet, "/v1/query?"+v.Encode(), "", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// QueryRange answers an inclusive cell-rectangle total.
func (c *Client) QueryRange(ctx context.Context, x0, y0, x1, y1 int) (*QueryResponse, error) {
	return c.Query(ctx, QueryRequest{Type: QueryTypeRange, Range: rangequery.Query{X0: x0, Y0: y0, X1: x1, Y1: y1}})
}

// QueryTopK answers the k heaviest estimate cells.
func (c *Client) QueryTopK(ctx context.Context, k int) (*QueryResponse, error) {
	return c.Query(ctx, QueryRequest{Type: QueryTypeTopK, K: k})
}

package experiments

import "encoding/json"

// JSON renders a figure as deterministic JSON for downstream plotting
// tools.
func (f *Figure) JSON() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

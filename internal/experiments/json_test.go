package experiments

import (
	"encoding/json"
	"testing"
)

func TestFigureJSONRoundTrip(t *testing.T) {
	fig := &Figure{
		Name: "figX", Title: "demo", XLabel: "d", YLabel: "W2",
		Series: []Series{{Label: "A", X: []float64{1, 2}, Y: []float64{0.5, 0.25}}},
	}
	out, err := fig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Figure
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != fig.Name || len(back.Series) != 1 || back.Series[0].Y[1] != 0.25 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

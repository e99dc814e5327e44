package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dpspatial"
	"dpspatial/internal/experiments"
	"dpspatial/internal/rng"
	"dpspatial/internal/synth"
)

func (hc *harnessConfig) suite() *experiments.Suite {
	return experiments.NewSuite(experiments.Config{
		Scale:         synth.Scale(hc.scale),
		Repeats:       hc.repeats,
		Seed:          hc.seed,
		MaxPoints:     hc.maxPoints,
		LPCalibration: !hc.noLPCal,
	})
}

func cmdFig(args []string) error {
	fs := flag.NewFlagSet("fig", flag.ExitOnError)
	hc := harnessFlags(fs)
	figName := fs.String("fig", "", "figure id: 8, 9a..9t, 13a..13d, 14a, 14b")
	asJSON := fs.Bool("json", false, "emit JSON instead of aligned text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *figName == "" {
		return fmt.Errorf("missing --fig")
	}
	s := hc.suite()
	fig, err := runFigure(s, *figName)
	if err != nil {
		return err
	}
	if *asJSON {
		out, err := fig.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Print(fig.Format())
	return nil
}

// runFigure dispatches a figure id to its suite runner.
func runFigure(s *experiments.Suite, name string) (*experiments.Figure, error) {
	datasets := experiments.DatasetNames()
	switch {
	case name == "8":
		return s.Fig8()
	case name == "14a":
		return s.Fig14a()
	case name == "14b":
		return s.Fig14b()
	case strings.HasPrefix(name, "13"):
		return s.Fig13(strings.TrimPrefix(name, "13"))
	case strings.HasPrefix(name, "9") && len(name) == 2:
		letter := name[1]
		if letter < 'a' || letter > 't' {
			return nil, fmt.Errorf("unknown figure 9 panel %q", name)
		}
		idx := int(letter - 'a')
		dataset := datasets[idx%5]
		switch idx / 5 {
		case 0:
			return s.Fig9SmallD(dataset)
		case 1:
			return s.Fig9LargeD(dataset)
		case 2:
			return s.Fig9SmallEps(dataset)
		default:
			return s.Fig9LargeEps(dataset)
		}
	default:
		return nil, fmt.Errorf("unknown figure %q", name)
	}
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	hc := harnessFlags(fs)
	table := fs.Int("table", 0, "table number: 3, 4 or 5")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := hc.suite()
	switch *table {
	case 3:
		t, err := s.Table3()
		if err != nil {
			return err
		}
		fmt.Print(t.Format())
	case 4:
		fmt.Print(s.Table4().Format())
	case 5:
		fmt.Print(s.Table5().Format())
	default:
		return fmt.Errorf("unknown table %d", *table)
	}
	return nil
}

func cmdShapes(args []string) error {
	fs := flag.NewFlagSet("shapes", flag.ExitOnError)
	hc := harnessFlags(fs)
	figList := fs.String("figs", "8,9a,9d,14a", "comma-separated figure ids to audit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := hc.suite()
	figs := map[string]*experiments.Figure{}
	for _, id := range strings.Split(*figList, ",") {
		fig, err := runFigure(s, id)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		figs[fig.Name] = fig
		fmt.Print(fig.Format())
		fmt.Println()
	}
	for _, line := range experiments.SummarizeShapes(figs) {
		fmt.Println(line)
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	hc := harnessFlags(fs)
	dataset := fs.String("dataset", "Crime", "dataset name")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := synth.Generate(*dataset, rng.New(hc.seed), synth.Scale(hc.scale))
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintln(bw, "x,y")
	for _, p := range ds.Points {
		fmt.Fprintf(bw, "%g,%g\n", p.X, p.Y)
	}
	return nil
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	in := fs.String("in", "", "input CSV with x,y columns")
	fromAgg := fs.String("from-aggregate", "", "decode a merged aggregate file instead of collecting from CSV points")
	fromURL := fs.String("from-url", "", "fetch the current estimate from a collector or fleet supervisor (base URL)")
	authToken := fs.String("auth-token", "", "bearer token for a service running with --auth-token (with --from-url)")
	tlsCA := fs.String("tls-ca", "", "PEM CA bundle to trust for an https:// --from-url")
	d := fs.Int("d", 15, "grid side length")
	eps := fs.Float64("eps", 3.5, "privacy budget")
	mech := fs.String("mech", "DAM", "mechanism: "+strings.Join(dpspatial.EstimateMechanismNames(), ", "))
	seed := fs.Uint64("seed", 1, "random seed")
	render := fs.Bool("render", false, "print an ASCII density map instead of CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var est *dpspatial.Histogram
	var err error
	switch {
	case *fromURL != "":
		est, err = estimateFromURL(*fromURL, *authToken, *tlsCA)
	case *fromAgg != "":
		est, err = estimateFromAggregateFile(*fromAgg)
	case *in != "":
		var pts []dpspatial.Point
		pts, err = readPointsCSV(*in)
		if err != nil {
			return err
		}
		est, err = dpspatial.Estimate(pts, *d, *eps,
			dpspatial.WithMechanism(*mech), dpspatial.WithSeed(*seed))
	default:
		return fmt.Errorf("missing --in, --from-aggregate or --from-url")
	}
	if err != nil {
		return err
	}
	if *render {
		fmt.Print(est.Render())
		return nil
	}
	fmt.Println("cell_x,cell_y,probability")
	for i, m := range est.Mass {
		c := est.Dom.CellAt(i)
		fmt.Printf("%d,%d,%g\n", c.X, c.Y, m)
	}
	return nil
}

func readPointsCSV(path string) ([]dpspatial.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []dpspatial.Point
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || (lineNo == 1 && strings.HasPrefix(strings.ToLower(line), "x")) {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("%s:%d: need x,y columns", path, lineNo)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		pts = append(pts, dpspatial.Point{X: x, Y: y})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%s: no points", path)
	}
	return pts, nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	d := fs.Int("d", 20, "grid side length")
	eps := fs.Float64("eps", 3.5, "privacy budget")
	n := fs.Int("n", 60000, "synthetic city population")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pts, err := synth.City(rng.New(42), synth.CityConfig{
		N: *n, Streets: 10, Hotspots: 5, StreetFrac: 0.7, Jitter: 0.004, HotSigma: 0.02,
	})
	if err != nil {
		return err
	}
	dom, err := dpspatial.DomainOver(pts, *d)
	if err != nil {
		return err
	}
	truth := dpspatial.HistFromPoints(dom, pts)
	mech, err := dpspatial.NewDAM(dom, *eps)
	if err != nil {
		return err
	}
	est, err := mech.EstimateHist(truth, dpspatial.NewRand(7))
	if err != nil {
		return err
	}
	fmt.Printf("True density (d=%d):\n%s\n", *d, truth.Clone().Normalize().Render())
	fmt.Printf("DAM estimate (eps=%g):\n%s", *eps, est.Render())
	w2, err := dpspatial.Wasserstein2Sinkhorn(truth.Clone().Normalize(), est)
	if err != nil {
		return err
	}
	fmt.Printf("\nW2(true, estimate) ≈ %.4f cell units\n", w2)
	return nil
}

func cmdAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	hc := harnessFlags(fs)
	what := fs.String("what", "shrink", "ablation: shrink, post, baselines or rangequery")
	dataset := fs.String("dataset", "Crime", "dataset for single-dataset ablations")
	d := fs.Int("d", 10, "grid side length for baselines/rangequery ablations")
	eps := fs.Float64("eps", 3.5, "privacy budget for baselines/rangequery ablations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := hc.suite()
	switch *what {
	case "shrink":
		t, err := s.AblationShrinkage()
		if err != nil {
			return err
		}
		fmt.Print(t.Format())
	case "post":
		t, err := s.AblationPostprocess(*dataset)
		if err != nil {
			return err
		}
		fmt.Print(t.Format())
	case "baselines":
		t, err := s.AblationBaselines(*dataset, *d, *eps)
		if err != nil {
			return err
		}
		fmt.Print(t.Format())
	case "rangequery":
		f, err := s.RangeQueryExperiment(*dataset, *d, *eps)
		if err != nil {
			return err
		}
		fmt.Print(f.Format())
	default:
		return fmt.Errorf("unknown ablation %q", *what)
	}
	return nil
}

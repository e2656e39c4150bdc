package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testData(t testing.TB) *Dataset {
	t.Helper()
	return Generate(TestConfig())
}

func TestGenerateMatchesConfig(t *testing.T) {
	cfg := TestConfig()
	d := Generate(cfg)
	s := d.Summarize()
	if s.NumTransactions != cfg.NumTransactions {
		t.Errorf("transactions = %d, want %d", s.NumTransactions, cfg.NumTransactions)
	}
	if s.DistinctODPairs != cfg.NumODPairs {
		t.Errorf("od pairs = %d, want %d", s.DistinctODPairs, cfg.NumODPairs)
	}
	if s.DistinctLocations > cfg.NumLocations {
		t.Errorf("locations = %d > %d", s.DistinctLocations, cfg.NumLocations)
	}
	if s.DistinctOrigins > cfg.NumOrigins {
		t.Errorf("origins = %d > %d", s.DistinctOrigins, cfg.NumOrigins)
	}
	if s.DistinctDestinations > cfg.NumDestinations {
		t.Errorf("destinations = %d > %d", s.DistinctDestinations, cfg.NumDestinations)
	}
	if s.OutDegMax != cfg.MegaHubFanout {
		t.Errorf("max out-degree = %d, want %d", s.OutDegMax, cfg.MegaHubFanout)
	}
	if s.InDegMax != cfg.ConsolidationFanin {
		t.Errorf("max in-degree = %d, want %d", s.InDegMax, cfg.ConsolidationFanin)
	}
	// At full scale both minimums are exactly 1 (verified in the
	// EXPERIMENTS harness); at test scale they stay small.
	if s.OutDegMin < 1 || s.OutDegMin > 2 || s.InDegMin < 1 || s.InDegMin > 2 {
		t.Errorf("degree minimums = %d/%d, want 1..2", s.OutDegMin, s.InDegMin)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TestConfig())
	b := Generate(TestConfig())
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Transactions {
		if a.Transactions[i] != b.Transactions[i] {
			t.Fatalf("transaction %d differs", i)
		}
	}
}

func TestGenerateAirFreightOutliers(t *testing.T) {
	d := testData(t)
	honolulu := LatLon{21.3, -157.9}
	air := 0
	for _, tx := range d.Transactions {
		if tx.Dest == honolulu {
			air++
			if tx.TransitHours >= 24 {
				t.Errorf("air shipment with %v transit hours, want < 24", tx.TransitHours)
			}
			if tx.Distance <= 3000 {
				t.Errorf("air shipment distance = %v, want > 3000", tx.Distance)
			}
		} else if tx.TransitHours < 24 && tx.Distance > 3000 {
			// The defining property of the paper's cluster 0: only air
			// freight moves 3,000+ miles in under a day.
			t.Errorf("road shipment moved %v mi in %v h", tx.Distance, tx.TransitHours)
		}
	}
	if air != TestConfig().AirFreightLoads {
		t.Errorf("air shipments = %d, want %d", air, TestConfig().AirFreightLoads)
	}
}

func TestGenerateModeMatchesWeight(t *testing.T) {
	d := testData(t)
	agree := 0
	for _, tx := range d.Transactions {
		expected := Truckload
		if tx.GrossWeight < 10000 {
			expected = LessThanTruckload
		}
		if tx.Mode == expected {
			agree++
		}
	}
	rate := float64(agree) / float64(d.Len())
	if rate < 0.93 || rate > 0.99 {
		t.Errorf("weight-mode agreement %.3f, want ~0.96 (4%% noise)", rate)
	}
}

func TestGenerateDatesWithinWindow(t *testing.T) {
	cfg := TestConfig()
	d := Generate(cfg)
	last := baseDate.AddDate(0, 0, cfg.Days-1)
	for _, tx := range d.Transactions {
		if tx.ReqPickup.Before(baseDate) || tx.ReqPickup.After(last) {
			t.Fatalf("pickup %v outside [%v, %v]", tx.ReqPickup, baseDate, last)
		}
		if tx.ReqDelivery.Before(tx.ReqPickup) {
			t.Fatalf("delivery %v before pickup %v", tx.ReqDelivery, tx.ReqPickup)
		}
		if tx.ReqDelivery.Sub(tx.ReqPickup) > 10*24*time.Hour {
			t.Fatalf("active window too long: %v", tx.ReqDelivery.Sub(tx.ReqPickup))
		}
	}
}

func TestGenerateCoordinatesRounded(t *testing.T) {
	d := testData(t)
	for _, tx := range d.Transactions[:50] {
		for _, p := range []LatLon{tx.Origin, tx.Dest} {
			if math.Abs(p.Lat*10-math.Round(p.Lat*10)) > 1e-9 {
				t.Fatalf("latitude %v not on 0.1 grid", p.Lat)
			}
			if math.Abs(p.Lon*10-math.Round(p.Lon*10)) > 1e-9 {
				t.Fatalf("longitude %v not on 0.1 grid", p.Lon)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := testData(t)
	small := &Dataset{Transactions: d.Transactions[:200]}
	var buf bytes.Buffer
	if err := small.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != small.Len() {
		t.Fatalf("round-trip length %d != %d", back.Len(), small.Len())
	}
	for i := range small.Transactions {
		a, b := small.Transactions[i], back.Transactions[i]
		if a.ID != b.ID || a.Origin != b.Origin || a.Dest != b.Dest || a.Mode != b.Mode {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, a, b)
		}
		if !a.ReqPickup.Equal(b.ReqPickup) || !a.ReqDelivery.Equal(b.ReqDelivery) {
			t.Fatalf("row %d dates mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header": "X,Y\n",
		"bad mode": "ID,REQ_PICKUP_DT,REQ_DELIVERY_DT,ORIGIN_LATITUDE,ORIGIN_LONGITUDE,DEST_LATITUDE,DEST_LONGITUDE,TOTAL_DISTANCE,GROSS_WEIGHT,MOVE_TRANSIT_HOURS,TRANS_MODE\n" +
			"1,2004-01-05,2004-01-06,44.5,-88.0,41.9,-87.6,200,5000,6,WRONG\n",
		"bad date": "ID,REQ_PICKUP_DT,REQ_DELIVERY_DT,ORIGIN_LATITUDE,ORIGIN_LONGITUDE,DEST_LATITUDE,DEST_LONGITUDE,TOTAL_DISTANCE,GROSS_WEIGHT,MOVE_TRANSIT_HOURS,TRANS_MODE\n" +
			"1,notadate,2004-01-06,44.5,-88.0,41.9,-87.6,200,5000,6,TL\n",
	}
	for name, input := range cases {
		if _, err := ReadCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBuildGraphStructural(t *testing.T) {
	d := testData(t)
	g := d.BuildGraph(GraphOptions{Attr: GrossWeight, Vertices: UniformLabels})
	if g.Name != "OD_GW" {
		t.Errorf("name = %s", g.Name)
	}
	if g.NumEdges() != d.Len() {
		t.Errorf("edges = %d, want one per transaction (%d)", g.NumEdges(), d.Len())
	}
	if labels := g.VertexLabels(); len(labels) != 1 || labels[0] != "*" {
		t.Errorf("uniform labels = %v", labels)
	}
	if n := len(g.EdgeLabels()); n < 2 || n > 7 {
		t.Errorf("weight-bin labels = %d, want 2..7", n)
	}
}

func TestBuildGraphUniqueLabels(t *testing.T) {
	d := testData(t)
	g := d.BuildGraph(GraphOptions{Attr: TransitHours, Vertices: UniqueLabels})
	if g.Name != "OD_TH" {
		t.Errorf("name = %s", g.Name)
	}
	if len(g.VertexLabels()) != g.NumVertices() {
		t.Errorf("unique labels: %d labels for %d vertices", len(g.VertexLabels()), g.NumVertices())
	}
}

func TestBuildGraphExactLabelsExplode(t *testing.T) {
	d := testData(t)
	small := &Dataset{Transactions: d.Transactions[:500]}
	binned := small.BuildGraph(GraphOptions{Attr: GrossWeight})
	exact := small.BuildGraph(GraphOptions{Attr: GrossWeight, ExactLabels: true})
	if len(exact.EdgeLabels()) <= len(binned.EdgeLabels())*10 {
		t.Errorf("exact labels = %d, binned = %d; expected explosion (the paper's motivation for binning)",
			len(exact.EdgeLabels()), len(binned.EdgeLabels()))
	}
}

func TestScaledConfigValid(t *testing.T) {
	for _, f := range []float64{0.01, 0.025, 0.1, 0.5, 1.0} {
		cfg := DefaultConfig().Scaled(f)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Scaled(%v): %v", f, err)
		}
	}
}

func TestScaledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scaled(0) should panic")
		}
	}()
	DefaultConfig().Scaled(0)
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := TestConfig()
	mutations := []func(*GenConfig){
		func(c *GenConfig) { c.NumTransactions = 0 },
		func(c *GenConfig) { c.NumLocations = 5 },
		func(c *GenConfig) { c.NumOrigins = 0 },
		func(c *GenConfig) { c.NumOrigins = c.NumLocations + 1 },
		func(c *GenConfig) { c.NumDestinations = 0 },
		func(c *GenConfig) { c.Days = 0 },
		func(c *GenConfig) { c.ModeNoise = 1.5 },
		func(c *GenConfig) { c.NumOrigins = 10; c.NumDestinations = 10 },
	}
	for i, mutate := range mutations {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestRound01Property(t *testing.T) {
	f := func(lat, lon float64) bool {
		if math.IsNaN(lat) || math.IsInf(lat, 0) || math.Abs(lat) > 1e6 {
			return true
		}
		if math.IsNaN(lon) || math.IsInf(lon, 0) || math.Abs(lon) > 1e6 {
			return true
		}
		p := LatLon{lat, lon}.Round01()
		return math.Abs(p.Lat*10-math.Round(p.Lat*10)) < 1e-6 &&
			math.Abs(p.Lon*10-math.Round(p.Lon*10)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatLonString(t *testing.T) {
	p := LatLon{44.5, -88.0}
	if p.String() != "44.5,-88.0" {
		t.Errorf("String = %q", p.String())
	}
}

func TestWriteARFF(t *testing.T) {
	d := testData(t)
	small := &Dataset{Transactions: d.Transactions[:10]}
	var buf bytes.Buffer
	if err := small.WriteARFF(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"@RELATION transportation_od",
		"@ATTRIBUTE TRANS_MODE {TL,LTL}",
		"@DATA",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ARFF missing %q", want)
		}
	}
	lines := strings.Count(out, "\n")
	if lines < 10+14 {
		t.Errorf("ARFF too short: %d lines", lines)
	}
}

// Package dataset models the origin–destination (OD) transportation
// transactions of Section 3 / Table 1 of the paper, provides a CSV
// codec, summary statistics, a calibrated synthetic data generator
// (the paper's six-month Schneider National dataset is proprietary),
// and construction of the three labeled OD graphs OD_GW, OD_TH and
// OD_TD used throughout the experiments.
package dataset

import (
	"fmt"
	"math"
	"time"
)

// Mode is the TRANS_MODE attribute: Truckload or Less-than-Truckload.
type Mode string

// The two shipment modes in the dataset.
const (
	Truckload         Mode = "TL"
	LessThanTruckload Mode = "LTL"
)

// LatLon is a latitude/longitude pair rounded to the nearest 0.1
// degree, as in the source data.
type LatLon struct {
	Lat, Lon float64
}

// Round01 returns p with both coordinates rounded to 0.1 degree.
func (p LatLon) Round01() LatLon {
	return LatLon{Lat: math.Round(p.Lat*10) / 10, Lon: math.Round(p.Lon*10) / 10}
}

// String renders the point as "lat,lon" with one decimal, the unique
// vertex label format of Section 6.
func (p LatLon) String() string { return fmt.Sprintf("%.1f,%.1f", p.Lat, p.Lon) }

// Transaction is one row of the OD dataset: a single load moved from
// origin to destination (Table 1 of the paper).
type Transaction struct {
	ID           int       // unique transaction identifier
	ReqPickup    time.Time // requested pickup date
	ReqDelivery  time.Time // requested delivery date
	Origin       LatLon    // origin, to nearest 0.1 degree
	Dest         LatLon    // destination, to nearest 0.1 degree
	Distance     float64   // road miles between origin and destination
	GrossWeight  float64   // weight of the load, pounds
	TransitHours float64   // hours to get from origin to destination
	Mode         Mode      // TL or LTL
}

// ODPair returns the (origin, destination) pair of t.
func (t Transaction) ODPair() ODPair { return ODPair{t.Origin, t.Dest} }

// ODPair is an ordered origin–destination pair; the dataset contains
// 20,900 distinct ones.
type ODPair struct {
	Origin, Dest LatLon
}

// Dataset is an in-memory OD transaction table.
type Dataset struct {
	Transactions []Transaction
}

// Len returns the number of transactions.
func (d *Dataset) Len() int { return len(d.Transactions) }

// Summary holds the dataset-level statistics reported in Section 3.
type Summary struct {
	NumTransactions      int
	DistinctLocations    int // distinct lat-lon pairs (origins ∪ destinations)
	DistinctOrigins      int
	DistinctDestinations int
	DistinctODPairs      int
	Days                 int // distinct pickup dates
	MinPickup, MaxPickup time.Time
	WeightMin, WeightMax float64
	DistMin, DistMax     float64
	HoursMin, HoursMax   float64

	// Degree statistics over distinct OD pairs (the form the paper
	// reports: out 1/2373/12, in 1/832/6).
	OutDegMin, OutDegMax int
	OutDegAvg            float64
	InDegMin, InDegMax   int
	InDegAvg             float64
}

// Summarize computes the Section 3 statistics for d.
func (d *Dataset) Summarize() Summary {
	s := Summary{NumTransactions: len(d.Transactions)}
	if len(d.Transactions) == 0 {
		return s
	}
	origins := make(map[LatLon]bool)
	dests := make(map[LatLon]bool)
	locs := make(map[LatLon]bool)
	pairs := make(map[ODPair]bool)
	days := make(map[string]bool)
	s.WeightMin, s.DistMin, s.HoursMin = math.Inf(1), math.Inf(1), math.Inf(1)
	s.MinPickup = d.Transactions[0].ReqPickup
	s.MaxPickup = d.Transactions[0].ReqPickup
	for _, t := range d.Transactions {
		origins[t.Origin] = true
		dests[t.Dest] = true
		locs[t.Origin] = true
		locs[t.Dest] = true
		pairs[t.ODPair()] = true
		days[t.ReqPickup.Format("2006-01-02")] = true
		s.WeightMin = math.Min(s.WeightMin, t.GrossWeight)
		s.WeightMax = math.Max(s.WeightMax, t.GrossWeight)
		s.DistMin = math.Min(s.DistMin, t.Distance)
		s.DistMax = math.Max(s.DistMax, t.Distance)
		s.HoursMin = math.Min(s.HoursMin, t.TransitHours)
		s.HoursMax = math.Max(s.HoursMax, t.TransitHours)
		if t.ReqPickup.Before(s.MinPickup) {
			s.MinPickup = t.ReqPickup
		}
		if t.ReqPickup.After(s.MaxPickup) {
			s.MaxPickup = t.ReqPickup
		}
	}
	s.DistinctOrigins = len(origins)
	s.DistinctDestinations = len(dests)
	s.DistinctLocations = len(locs)
	s.DistinctODPairs = len(pairs)
	s.Days = len(days)

	outDeg := make(map[LatLon]int, len(origins))
	inDeg := make(map[LatLon]int, len(dests))
	for p := range pairs {
		outDeg[p.Origin]++
		inDeg[p.Dest]++
	}
	s.OutDegMin, s.OutDegMax, s.OutDegAvg = degreeStats(outDeg)
	s.InDegMin, s.InDegMax, s.InDegAvg = degreeStats(inDeg)
	return s
}

func degreeStats(deg map[LatLon]int) (min, max int, avg float64) {
	min = -1
	total := 0
	for _, d := range deg {
		total += d
		if min == -1 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min == -1 {
		min = 0
	}
	if len(deg) > 0 {
		avg = float64(total) / float64(len(deg))
	}
	return min, max, avg
}

// String renders the summary in the style of Section 3.
func (s Summary) String() string {
	return fmt.Sprintf(
		"transactions=%d locations=%d origins=%d destinations=%d od-pairs=%d days=%d\n"+
			"weight=[%.0f, %.0f] lbs, distance=[%.0f, %.0f] mi, transit=[%.1f, %.1f] h\n"+
			"out-degree min/max/avg = %d/%d/%.0f, in-degree min/max/avg = %d/%d/%.0f",
		s.NumTransactions, s.DistinctLocations, s.DistinctOrigins,
		s.DistinctDestinations, s.DistinctODPairs, s.Days,
		s.WeightMin, s.WeightMax, s.DistMin, s.DistMax, s.HoursMin, s.HoursMax,
		s.OutDegMin, s.OutDegMax, s.OutDegAvg, s.InDegMin, s.InDegMax, s.InDegAvg)
}

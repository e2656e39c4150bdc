package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// GenConfig controls the calibrated synthetic generator. The defaults
// (see DefaultConfig) reproduce every dataset statistic published in
// Section 3 of the paper; tests use scaled-down configs via Scaled.
type GenConfig struct {
	Seed int64

	NumTransactions int // total rows (paper: 98,292)
	NumLocations    int // distinct lat-lon pairs (paper: 4,038)
	NumOrigins      int // distinct origins (paper: 1,797)
	NumDestinations int // distinct destinations (paper: 3,770)
	NumODPairs      int // distinct OD pairs (paper: 20,900)
	Days            int // span of the dataset in days (paper: ~182)

	// Planted structural motifs (Sections 1, 5 and 6 describe these
	// as the "good" shapes in transportation networks).
	HubMotifs      int // hub-and-spoke instances (Figure 2 pattern)
	HubFanoutMin   int
	HubFanoutMax   int
	ChainMotifs    int // delivery-route chains (Figure 3 pattern)
	ChainLenMin    int
	ChainLenMax    int
	DeadheadMotifs int // A->B->C flows with no return traffic (Figure 1)

	MegaHubFanout      int // max out-degree (paper: 2,373)
	ConsolidationFanin int // max in-degree (paper: 832)
	AirFreightLoads    int // PNW->Hawaii outliers (paper: 3, cluster 0)

	// WeekendHubs are small hub-and-spoke operations that distribute
	// on weekends, when the rest of the network is nearly idle. They
	// give the per-day graph sizes the bimodal shape of Table 2 (73
	// transactions of size 1-10 next to 65 of size 1000+) and supply
	// the small recurring patterns Figure 4 finds on the quiet dates.
	WeekendHubs      int
	WeekendHubFanout int

	ModeNoise float64 // fraction of TRANS_MODE labels flipped (drives the ~96% J4.8 accuracy)
}

// DefaultConfig returns the full-scale configuration matching the
// published dataset statistics.
func DefaultConfig() GenConfig {
	return GenConfig{
		Seed:               20050405, // ICDE 2005 conference dates
		NumTransactions:    98292,
		NumLocations:       4038,
		NumOrigins:         1797,
		NumDestinations:    3770,
		NumODPairs:         20900,
		Days:               182,
		HubMotifs:          300,
		HubFanoutMin:       8,
		HubFanoutMax:       12,
		ChainMotifs:        80,
		ChainLenMin:        12,
		ChainLenMax:        15,
		DeadheadMotifs:     50,
		MegaHubFanout:      2373,
		ConsolidationFanin: 832,
		AirFreightLoads:    3,
		WeekendHubs:        14,
		WeekendHubFanout:   4,
		ModeNoise:          0.04,
	}
}

// Scaled returns a copy of c with all volume parameters multiplied by
// f (0 < f <= 1), keeping internal consistency (origins + destinations
// - locations stays non-negative, fanouts within location counts).
func (c GenConfig) Scaled(f float64) GenConfig {
	if f <= 0 || f > 1 {
		panic("dataset: Scaled factor must be in (0, 1]")
	}
	scale := func(n, min int) int {
		v := int(math.Round(float64(n) * f))
		if v < min {
			v = min
		}
		return v
	}
	s := c
	s.NumTransactions = scale(c.NumTransactions, 200)
	s.NumLocations = scale(c.NumLocations, 60)
	s.NumOrigins = scale(c.NumOrigins, 30)
	s.NumDestinations = scale(c.NumDestinations, 50)
	if s.NumOrigins+s.NumDestinations < s.NumLocations {
		s.NumLocations = s.NumOrigins + s.NumDestinations
	}
	if s.NumOrigins > s.NumLocations {
		s.NumOrigins = s.NumLocations
	}
	if s.NumDestinations > s.NumLocations {
		s.NumDestinations = s.NumLocations
	}
	s.NumODPairs = scale(c.NumODPairs, 80)
	maxPairs := s.NumOrigins * s.NumDestinations / 2
	if s.NumODPairs > maxPairs {
		s.NumODPairs = maxPairs
	}
	s.HubMotifs = scale(c.HubMotifs, 4)
	s.ChainMotifs = scale(c.ChainMotifs, 2)
	s.DeadheadMotifs = scale(c.DeadheadMotifs, 2)
	s.MegaHubFanout = scale(c.MegaHubFanout, 20)
	if s.MegaHubFanout > s.NumDestinations-1 {
		s.MegaHubFanout = s.NumDestinations - 1
	}
	s.ConsolidationFanin = scale(c.ConsolidationFanin, 10)
	if s.ConsolidationFanin > s.NumOrigins-1 {
		s.ConsolidationFanin = s.NumOrigins - 1
	}
	s.WeekendHubs = scale(c.WeekendHubs, 5)
	return s
}

// TestConfig returns a small, fast configuration for unit tests
// (about 1/40 of full scale).
func TestConfig() GenConfig { return DefaultConfig().Scaled(0.025) }

// region is a rectangular sampling region for synthetic locations.
type region struct {
	latLo, latHi float64
	lonLo, lonHi float64
	weight       float64
}

// The regional mix is chosen so that (a) the longitude band
// (-84.76, -75.43] is dominated ~7:1 by the latitude band
// (39.8, 44.08], reproducing the paper's 0.87-confidence association
// rule, and (b) the Midwest around the carrier's Green Bay home base
// carries the densest traffic.
var regions = []region{
	{40.0, 44.0, -84.7, -75.5, 0.21}, // Great Lakes / Northeast corridor
	{32.0, 39.0, -84.7, -75.5, 0.04}, // Southeast within the same longitude band
	{40.8, 44.4, -75.4, -67.2, 0.07}, // New England / Mid-Atlantic seaboard (exclusively northern longitudes)
	{38.0, 47.0, -97.0, -85.0, 0.33}, // Upper Midwest (carrier heartland)
	{29.0, 36.5, -106.0, -85.0, 0.15},
	{32.0, 48.5, -124.0, -107.0, 0.14},
	{35.0, 48.0, -106.0, -97.0, 0.06},
}

// Fixed named locations used by planted motifs.
var (
	locGreenBay = LatLon{44.5, -88.0} // mega-hub origin
	locSeattle  = LatLon{47.6, -122.3}
	locPortland = LatLon{45.5, -122.7}
	locHonolulu = LatLon{21.3, -157.9} // air-freight destination
	locChicago  = LatLon{41.9, -87.6}  // consolidation destination
)

type laneKind int

const (
	laneRandom laneKind = iota
	laneHubSpoke
	laneChain
	laneDeadheadMain
	laneDeadheadReturn
	laneMegaHub
	laneConsolidation
	laneAir
)

// lane is one distinct OD pair and its shipment profile.
type lane struct {
	origin, dest LatLon
	kind         laneKind
	baseWeight   float64 // pounds
	count        int     // transactions on this lane
	recurring    bool    // weekly cadence vs. uniform dates
	days         []int   // explicit pickup-day schedule (overrides count-based dates)
	distance     float64 // road miles (fixed per lane)
	speed        float64 // effective mph for transit-hour synthesis
}

// Generate produces a synthetic OD dataset according to cfg. The
// output is deterministic for a given configuration.
func Generate(cfg GenConfig) *Dataset {
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.buildLocations()
	g.buildLanes()
	g.calibrateCounts()
	return g.emit()
}

type generator struct {
	cfg GenConfig
	rng *rand.Rand

	locs    []LatLon
	origins []LatLon // locs[:NumOrigins]
	dests   []LatLon // locs[len-NumDestinations:]

	lanes         []*lane
	laneSet       map[ODPair]bool
	originCovered map[LatLon]bool
	destCovered   map[LatLon]bool
	outDeg        map[LatLon]int

	// nearDests holds, for each origin, the indices into dests of the
	// destinations in randomDest's box around it, in dests order.
	nearDests map[LatLon][]int32
	// near is randomDest's shuffle buffer, reused across calls.
	near []int32
}

func (g *generator) buildLocations() {
	cfg := g.cfg
	seen := map[LatLon]bool{
		locGreenBay: true, locSeattle: true, locPortland: true,
		locHonolulu: true, locChicago: true,
	}
	// Interior locations sampled from the regional mix (all
	// locations except the five named ones).
	interior := []LatLon{}
	for len(interior) < cfg.NumLocations-5 {
		r := g.pickRegion()
		p := LatLon{
			Lat: r.latLo + g.rng.Float64()*(r.latHi-r.latLo),
			Lon: r.lonLo + g.rng.Float64()*(r.lonHi-r.lonLo),
		}.Round01()
		if seen[p] {
			continue
		}
		seen[p] = true
		interior = append(interior, p)
	}
	g.rng.Shuffle(len(interior), func(i, j int) { interior[i], interior[j] = interior[j], interior[i] })

	// Layout: origins are the prefix, destinations the suffix, and
	// the overlap in the middle. Named motif locations are pinned:
	// Green Bay / Seattle / Portland must be origins, Honolulu must
	// be destination-only, Chicago must be a destination.
	locs := make([]LatLon, 0, cfg.NumLocations)
	locs = append(locs, locGreenBay, locSeattle, locPortland)
	// Split the interior so that Chicago and Honolulu land in the
	// destination suffix.
	destOnlyStart := cfg.NumLocations - 2 // reserve final slots
	locs = append(locs, interior[:destOnlyStart-3]...)
	locs = append(locs, locChicago, locHonolulu)
	// Chicago should be inside the destination range; Honolulu is
	// last so it is destination-only as long as NumOrigins <
	// NumLocations-1, which all configurations guarantee.
	g.locs = locs
	g.origins = locs[:cfg.NumOrigins]
	g.dests = locs[cfg.NumLocations-cfg.NumDestinations:]
	g.buildNearDests()
}

// randomDestBox is the half-width, in degrees, of the box randomDest
// draws regional destinations from.
const randomDestBox = 10.0

// buildNearDests lists randomDest's candidates for every origin once,
// so each of its calls copies a list instead of scanning every
// destination. It draws nothing from rng.
func (g *generator) buildNearDests() {
	g.nearDests = make(map[LatLon][]int32, len(g.origins))
	var buf []int32
	for _, o := range g.origins {
		buf = buf[:0]
		for j, d := range g.dests {
			if inBox(d, o, randomDestBox) {
				buf = append(buf, int32(j))
			}
		}
		g.nearDests[o] = append([]int32(nil), buf...)
	}
}

func (g *generator) pickRegion() region {
	r := g.rng.Float64()
	acc := 0.0
	for _, reg := range regions {
		acc += reg.weight
		if r < acc {
			return reg
		}
	}
	return regions[len(regions)-1]
}

// addLane registers a lane for the given pair if it is new; it
// returns the lane and whether it was created. Origins other than the
// mega-hub are capped below MegaHubFanout distinct destinations so
// the published maximum out-degree stays pinned to the mega-hub.
func (g *generator) addLane(o, d LatLon, kind laneKind) (*lane, bool) {
	if o == d {
		return nil, false
	}
	if o != locGreenBay && g.outDeg[o] >= g.cfg.MegaHubFanout-1 {
		return nil, false
	}
	pair := ODPair{o, d}
	if g.laneSet[pair] {
		return nil, false
	}
	g.laneSet[pair] = true
	ln := &lane{origin: o, dest: d, kind: kind}
	g.lanes = append(g.lanes, ln)
	g.originCovered[o] = true
	g.destCovered[d] = true
	g.outDeg[o]++
	return ln, true
}

func (g *generator) buildLanes() {
	cfg := g.cfg
	g.laneSet = make(map[ODPair]bool, cfg.NumODPairs)
	g.originCovered = make(map[LatLon]bool, cfg.NumOrigins)
	g.destCovered = make(map[LatLon]bool, cfg.NumDestinations)
	g.outDeg = make(map[LatLon]int, cfg.NumOrigins)

	// (f) Air-freight outliers: Pacific Northwest to Hawaii.
	if ln, ok := g.addLane(locSeattle, locHonolulu, laneAir); ok {
		ln.baseWeight = 1800
		ln.count = (cfg.AirFreightLoads + 1) / 2
	}
	if ln, ok := g.addLane(locPortland, locHonolulu, laneAir); ok {
		ln.baseWeight = 2200
		ln.count = cfg.AirFreightLoads / 2
	}

	// (a) Hub-and-spoke motifs: a hub origin delivering to nearby
	// destinations with a small set of weight classes (Figure 2).
	// All spokes of a hub ship on the hub's distribution days, so
	// the fan-out recurs as a unit — both across space (structural
	// mining, Figure 2) and across days (temporal mining, Figure 4).
	for i := 0; i < cfg.HubMotifs; i++ {
		hub := g.origins[g.rng.Intn(len(g.origins))]
		if hub == locGreenBay {
			continue
		}
		fanout := cfg.HubFanoutMin + g.rng.Intn(cfg.HubFanoutMax-cfg.HubFanoutMin+1)
		spokes := g.nearbyDests(hub, 4.0, fanout)
		sched := g.weeklySchedule(14) // bi-weekly distribution days
		for j, d := range spokes {
			ln, ok := g.addLane(hub, d, laneHubSpoke)
			if !ok {
				continue
			}
			// Cycle through three weight classes so the hub's spokes
			// carry a repeatable label multiset.
			switch j % 3 {
			case 0:
				ln.baseWeight = 3000 + g.rng.Float64()*2500 // bin [0, 6500)
			case 1:
				ln.baseWeight = 8000 + g.rng.Float64()*4000 // bin [6500, 13000)
			default:
				ln.baseWeight = 14000 + g.rng.Float64()*5000 // bin [13000, 19500)
			}
			ln.recurring = true
			count := 6 + g.rng.Intn(5)
			if count > len(sched) {
				count = len(sched)
			}
			ln.days = append([]int(nil), sched[:count]...)
			ln.count = len(ln.days)
		}
	}

	// (b) Delivery-route chains: v1 -> v2 -> ... -> vk over locations
	// that are both origins and destinations (Figure 3).
	overlapLo := cfg.NumLocations - cfg.NumDestinations
	overlap := g.locs[overlapLo:cfg.NumOrigins]
	for i := 0; i < cfg.ChainMotifs && len(overlap) > cfg.ChainLenMax; i++ {
		length := cfg.ChainLenMin + g.rng.Intn(cfg.ChainLenMax-cfg.ChainLenMin+1)
		start := overlap[g.rng.Intn(len(overlap))]
		sched := g.weeklySchedule(14) // runs of the whole route
		runs := 8 + g.rng.Intn(5)
		if runs > len(sched) {
			runs = len(sched)
		}
		prev := start
		for j := 0; j < length; j++ {
			next := g.nearbyFrom(overlap, prev, 2.5)
			if next == prev {
				break
			}
			if ln, ok := g.addLane(prev, next, laneChain); ok {
				ln.baseWeight = 1500 + g.rng.Float64()*4000 // light LTL
				ln.recurring = true
				// Leg j of run r departs j days after the run starts,
				// so the route is a repeated connection path over
				// time (Section 9's dynamic-path pattern).
				for _, s := range sched[:runs] {
					day := s + j
					if day >= cfg.Days {
						day = cfg.Days - 1
					}
					ln.days = append(ln.days, day)
				}
				ln.count = len(ln.days)
			}
			prev = next
		}
	}

	// (c) Deadhead corridors: heavy A->B and B->C with almost no
	// return traffic (the Figure 1 pattern SUBDUE surfaces). All
	// three locations are drawn from the origin∩destination overlap
	// so every leg respects the role layout.
	for i := 0; i < cfg.DeadheadMotifs && len(overlap) >= 3; i++ {
		a := overlap[g.rng.Intn(len(overlap))]
		b := g.nearbyFrom(overlap, a, 6.0)
		c := g.nearbyFrom(overlap, b, 6.0)
		if a == b || b == c || a == c {
			continue
		}
		if ln, ok := g.addLane(a, b, laneDeadheadMain); ok {
			ln.baseWeight = 30000 + g.rng.Float64()*12000
			ln.recurring = true
			ln.count = 40 + g.rng.Intn(30)
		}
		if ln, ok := g.addLane(b, c, laneDeadheadMain); ok {
			ln.baseWeight = 30000 + g.rng.Float64()*12000
			ln.recurring = true
			ln.count = 40 + g.rng.Intn(30)
		}
		// Sparse return leg (usually absent entirely).
		if g.rng.Float64() < 0.3 {
			if ln, ok := g.addLane(c, a, laneDeadheadReturn); ok {
				ln.baseWeight = 5000
				ln.count = 1 + g.rng.Intn(2)
			}
		}
	}

	// (d) Consolidation center: many origins feed one destination,
	// giving the published max in-degree.
	fanin := cfg.ConsolidationFanin
	perm := g.rng.Perm(len(g.origins))
	added := 0
	for _, oi := range perm {
		if added >= fanin {
			break
		}
		if g.origins[oi] == locGreenBay {
			continue
		}
		if ln, ok := g.addLane(g.origins[oi], locChicago, laneConsolidation); ok {
			ln.baseWeight = 6000 + g.rng.Float64()*9000
			ln.count = 1 + g.rng.Intn(3)
			added++
		}
	}

	// (d2) Weekend micro-hubs: small fan-outs that distribute on
	// Saturdays or Sundays, when the rest of the network is nearly
	// idle. These populate the quiet dates of Table 2's bimodal size
	// distribution and recur across weekends (Figure 4's patterns).
	for i := 0; i < cfg.WeekendHubs; i++ {
		hub := g.origins[g.rng.Intn(len(g.origins))]
		if hub == locGreenBay {
			continue
		}
		fanout := 2 + g.rng.Intn(cfg.WeekendHubFanout)
		spokes := g.nearbyDests(hub, 4.0, fanout)
		sched := g.weekendSchedule()
		for j, d := range spokes {
			ln, ok := g.addLane(hub, d, laneHubSpoke)
			if !ok {
				continue
			}
			switch j % 2 {
			case 0:
				ln.baseWeight = 3000 + g.rng.Float64()*3000 // bin [0, 6500)
			default:
				ln.baseWeight = 14000 + g.rng.Float64()*5000 // bin [13000, 19500)
			}
			ln.recurring = true
			// Every week or every other week on the same weekend day.
			stride := 1 + g.rng.Intn(2)
			for k := 0; k < len(sched); k += stride {
				ln.days = append(ln.days, sched[k])
			}
			ln.count = len(ln.days)
		}
	}

	// (e) Mega-hub: Green Bay ships to MegaHubFanout distinct
	// destinations, giving the published max out-degree.
	permD := g.rng.Perm(len(g.dests))
	added = 0
	for _, di := range permD {
		if added >= cfg.MegaHubFanout {
			break
		}
		d := g.dests[di]
		if d == locHonolulu || d == locChicago {
			// Hawaii traffic is air freight only; the consolidation
			// center's in-degree stays pinned at ConsolidationFanin.
			continue
		}
		if ln, ok := g.addLane(locGreenBay, d, laneMegaHub); ok {
			ln.baseWeight = 10000 + g.rng.Float64()*30000
			ln.count = 1 + g.rng.Intn(3)
			added++
		}
	}

	// Coverage: every origin ships at least once and every
	// destination receives at least once, matching the published
	// minimum in/out degrees of 1.
	for _, o := range g.origins {
		if len(g.lanes) >= cfg.NumODPairs {
			break
		}
		if g.originCovered[o] {
			continue
		}
		d := g.randomDest(o)
		if ln, ok := g.addLane(o, d, laneRandom); ok {
			ln.baseWeight = g.randomWeight()
			ln.count = g.geometricCount(0.5, 50)
		}
	}
	for _, d := range g.dests {
		if len(g.lanes) >= cfg.NumODPairs {
			break
		}
		if g.destCovered[d] || d == locHonolulu {
			continue
		}
		o := g.origins[g.rng.Intn(len(g.origins))]
		for o == locGreenBay {
			o = g.origins[g.rng.Intn(len(g.origins))]
		}
		if ln, ok := g.addLane(o, d, laneRandom); ok {
			ln.baseWeight = g.randomWeight()
			ln.count = g.geometricCount(0.5, 50)
		}
	}

	// Random background lanes up to the target OD-pair count, with a
	// Zipf-like skew over origins. The mega-hub origin is excluded so
	// its out-degree stays pinned at MegaHubFanout.
	zipf := g.zipfWeights(len(g.origins), 0.75)
	for len(g.lanes) < cfg.NumODPairs {
		o := g.origins[g.sampleIndex(zipf)]
		if o == locGreenBay {
			continue
		}
		d := g.randomDest(o)
		if ln, ok := g.addLane(o, d, laneRandom); ok {
			ln.baseWeight = g.randomWeight()
			ln.count = g.geometricCount(0.74, 200)
		}
	}

	// Fix per-lane physical attributes.
	for _, ln := range g.lanes {
		if ln.kind == laneAir {
			// Recorded as >3,000 "miles" moved in under a day.
			ln.distance = 3050 + g.rng.Float64()*200
			ln.speed = 250 // air
			continue
		}
		ln.distance = roadMiles(ln.origin, ln.dest)
		if ln.baseWeight < 10000 {
			ln.speed = 14 + g.rng.Float64()*10 // LTL: multi-stop, slow effective speed
		} else {
			ln.speed = 38 + g.rng.Float64()*10 // TL: direct
		}
	}
}

// randomWeight draws a background load weight: mostly LTL and TL
// class, a tail of heavy and rare project cargo so the overall range
// approaches the paper's ~500 tons.
func (g *generator) randomWeight() float64 {
	r := g.rng.Float64()
	switch {
	case r < 0.40:
		return 500 + g.rng.Float64()*9000 // LTL
	case r < 0.85:
		return 10500 + g.rng.Float64()*33000 // TL
	case r < 0.995:
		return 44000 + g.rng.Float64()*56000 // heavy
	default:
		return 200000 + g.rng.Float64()*800000 // project cargo
	}
}

func (g *generator) geometricCount(continueProb float64, max int) int {
	count := 1
	for count < max && g.rng.Float64() < continueProb {
		count++
	}
	return count
}

func (g *generator) zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	for i := 1; i < n; i++ {
		w[i] += w[i-1] // cumulative
	}
	return w
}

func (g *generator) sampleIndex(cum []float64) int {
	r := g.rng.Float64() * cum[len(cum)-1]
	idx := sort.SearchFloat64s(cum, r)
	if idx >= len(cum) {
		idx = len(cum) - 1
	}
	return idx
}

// randomDest picks a destination for origin o: usually one within a
// 10-degree box (regional freight), otherwise uniform nationwide,
// never Honolulu (Hawaii traffic is air freight only). The regional
// pick shuffles o's whole candidate list, as nearbyDests would, so
// the draws from rng depend only on the list's length.
func (g *generator) randomDest(o LatLon) LatLon {
	if g.rng.Float64() < 0.7 {
		if near := g.nearDests[o]; len(near) > 0 {
			g.near = append(g.near[:0], near...)
			buf := g.near
			g.rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
			return g.dests[buf[0]]
		}
	}
	for {
		d := g.dests[g.rng.Intn(len(g.dests))]
		if d != locHonolulu && d != locChicago {
			return d
		}
	}
}

// nearbyDests returns up to n destinations within a deg-degree box of
// p (excluding p itself), randomly sampled.
func (g *generator) nearbyDests(p LatLon, deg float64, n int) []LatLon {
	var cands []LatLon
	for _, d := range g.dests {
		if inBox(d, p, deg) {
			cands = append(cands, d)
		}
	}
	if len(cands) <= n {
		return cands
	}
	g.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands[:n]
}

// inBox reports whether destination d lies within a deg-degree box of
// p, is not p, and is neither of the two destinations reserved for
// their motifs (Honolulu, Chicago).
func inBox(d, p LatLon, deg float64) bool {
	if d == p || d == locHonolulu || d == locChicago {
		return false
	}
	return math.Abs(d.Lat-p.Lat) <= deg && math.Abs(d.Lon-p.Lon) <= deg
}

// nearbyFrom returns a random member of pool within deg degrees of p,
// or p itself if none exists.
func (g *generator) nearbyFrom(pool []LatLon, p LatLon, deg float64) LatLon {
	var cands []LatLon
	for _, q := range pool {
		if q == p {
			continue
		}
		if math.Abs(q.Lat-p.Lat) <= deg && math.Abs(q.Lon-p.Lon) <= deg {
			cands = append(cands, q)
		}
	}
	if len(cands) == 0 {
		return p
	}
	return cands[g.rng.Intn(len(cands))]
}

// calibrateCounts adjusts per-lane transaction counts so the total is
// exactly cfg.NumTransactions.
func (g *generator) calibrateCounts() {
	total := 0
	for _, ln := range g.lanes {
		total += ln.count
	}
	adjustable := make([]*lane, 0, len(g.lanes))
	for _, ln := range g.lanes {
		if ln.kind == laneRandom || ln.kind == laneMegaHub || ln.kind == laneConsolidation {
			adjustable = append(adjustable, ln)
		}
	}
	if len(adjustable) == 0 {
		adjustable = g.lanes
	}
	for total < g.cfg.NumTransactions {
		adjustable[g.rng.Intn(len(adjustable))].count++
		total++
	}
	// Trim first from adjustable lanes, then (if they bottom out at
	// one transaction each) from any lane, so the loop always
	// terminates.
	for _, pool := range [][]*lane{adjustable, g.lanes} {
		for total > g.cfg.NumTransactions {
			reduced := false
			for _, ln := range pool {
				if total <= g.cfg.NumTransactions {
					break
				}
				if ln.count > 1 {
					ln.count--
					total--
					reduced = true
				}
			}
			if !reduced {
				break
			}
		}
	}
}

// baseDate is the first day of the synthetic six-month window.
var baseDate = time.Date(2004, time.January, 5, 0, 0, 0, 0, time.UTC)

func (g *generator) emit() *Dataset {
	cfg := g.cfg
	txns := make([]Transaction, 0, cfg.NumTransactions)
	for _, ln := range g.lanes {
		days := g.laneDays(ln)
		for _, day := range days {
			txns = append(txns, g.makeTransaction(ln, day))
		}
	}
	sort.Slice(txns, func(i, j int) bool {
		if !txns[i].ReqPickup.Equal(txns[j].ReqPickup) {
			return txns[i].ReqPickup.Before(txns[j].ReqPickup)
		}
		if txns[i].Origin != txns[j].Origin {
			return lessLatLon(txns[i].Origin, txns[j].Origin)
		}
		return lessLatLon(txns[i].Dest, txns[j].Dest)
	})
	for i := range txns {
		txns[i].ID = i + 1
	}
	return &Dataset{Transactions: txns}
}

func lessLatLon(a, b LatLon) bool {
	if a.Lat != b.Lat {
		return a.Lat < b.Lat
	}
	return a.Lon < b.Lon
}

// weeklySchedule returns distribution days spaced `step` days apart
// from a random weekday start, spanning the generation window.
func (g *generator) weeklySchedule(step int) []int {
	if step < 1 {
		step = 7
	}
	start := g.rng.Intn(7)
	for isWeekend(start) {
		start = g.rng.Intn(7)
	}
	var days []int
	for day := start; day < g.cfg.Days; day += step {
		days = append(days, day)
	}
	if len(days) == 0 {
		days = []int{0}
	}
	return days
}

// weekendSchedule returns every Saturday or Sunday (picked once) in
// the generation window.
func (g *generator) weekendSchedule() []int {
	target := time.Saturday
	if g.rng.Intn(2) == 1 {
		target = time.Sunday
	}
	var days []int
	for day := 0; day < g.cfg.Days; day++ {
		if baseDate.AddDate(0, 0, day).Weekday() == target {
			days = append(days, day)
		}
	}
	if len(days) == 0 {
		days = []int{0}
	}
	return days
}

// laneDays picks the pickup-day offsets for a lane's transactions:
// an explicit schedule when the lane has one, weekly cadence with
// jitter for recurring lanes, weekday-biased uniform otherwise.
func (g *generator) laneDays(ln *lane) []int {
	if len(ln.days) > 0 {
		return ln.days
	}
	days := make([]int, 0, ln.count)
	if ln.recurring {
		start := g.rng.Intn(7)
		for isWeekend(start) {
			start = g.rng.Intn(7)
		}
		step := 7 * (1 + g.rng.Intn(2)) // weekly or bi-weekly
		day := start
		for len(days) < ln.count {
			jitter := g.rng.Intn(3) - 1
			d := day + jitter
			if d < 0 {
				d = 0
			}
			if d >= g.cfg.Days {
				d = g.rng.Intn(g.cfg.Days)
			}
			days = append(days, d)
			day += step
			if day >= g.cfg.Days {
				day = g.rng.Intn(7)
			}
		}
		return days
	}
	for len(days) < ln.count {
		d := g.rng.Intn(g.cfg.Days)
		for tries := 0; tries < 3 && isWeekend(d) && g.rng.Float64() < 0.9; tries++ {
			d = g.rng.Intn(g.cfg.Days) // weekends are nearly idle
		}
		days = append(days, d)
	}
	return days
}

func isWeekend(dayOffset int) bool {
	wd := baseDate.AddDate(0, 0, dayOffset).Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

func (g *generator) makeTransaction(ln *lane, day int) Transaction {
	pickup := baseDate.AddDate(0, 0, day)
	weight := ln.baseWeight * (0.95 + g.rng.Float64()*0.10)
	hours := ln.distance/ln.speed + 1 + g.rng.Float64()*6
	if ln.kind == laneAir {
		hours = 10 + g.rng.Float64()*10 // under 24 hours
	}
	if hours > 140 {
		hours = 140 - g.rng.Float64()*10
	}
	transitDays := int(math.Ceil(hours / 24))
	if transitDays < 1 {
		transitDays = 1
	}
	delivery := pickup.AddDate(0, 0, transitDays)

	mode := Truckload
	if weight < 10000 {
		mode = LessThanTruckload
	}
	if g.rng.Float64() < g.cfg.ModeNoise {
		if mode == Truckload {
			mode = LessThanTruckload
		} else {
			mode = Truckload
		}
	}
	return Transaction{
		ReqPickup:    pickup,
		ReqDelivery:  delivery,
		Origin:       ln.origin,
		Dest:         ln.dest,
		Distance:     math.Round(ln.distance*10) / 10,
		GrossWeight:  math.Round(weight),
		TransitHours: math.Round(hours*100) / 100,
		Mode:         mode,
	}
}

// roadMiles approximates road distance as great-circle distance
// scaled by a circuity factor.
func roadMiles(a, b LatLon) float64 {
	const earthRadiusMi = 3958.8
	const circuity = 1.18
	lat1, lon1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	lat2, lon2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dlat, dlon := lat2-lat1, lon2-lon1
	h := math.Sin(dlat/2)*math.Sin(dlat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dlon/2)*math.Sin(dlon/2)
	d := 2 * earthRadiusMi * math.Asin(math.Sqrt(h))
	miles := d * circuity
	if miles < 5 {
		miles = 5
	}
	return miles
}

// Validate checks internal consistency of a configuration before
// generation and returns a descriptive error for unusable settings.
func (c GenConfig) Validate() error {
	switch {
	case c.NumTransactions < 1:
		return fmt.Errorf("dataset: NumTransactions %d < 1", c.NumTransactions)
	case c.NumLocations < 10:
		return fmt.Errorf("dataset: NumLocations %d < 10", c.NumLocations)
	case c.NumOrigins < 1 || c.NumOrigins > c.NumLocations:
		return fmt.Errorf("dataset: NumOrigins %d out of range [1, %d]", c.NumOrigins, c.NumLocations)
	case c.NumDestinations < 1 || c.NumDestinations > c.NumLocations:
		return fmt.Errorf("dataset: NumDestinations %d out of range [1, %d]", c.NumDestinations, c.NumLocations)
	case c.NumOrigins+c.NumDestinations < c.NumLocations:
		return fmt.Errorf("dataset: origins (%d) + destinations (%d) < locations (%d)",
			c.NumOrigins, c.NumDestinations, c.NumLocations)
	case c.NumODPairs < 1:
		return fmt.Errorf("dataset: NumODPairs %d < 1", c.NumODPairs)
	case c.Days < 1:
		return fmt.Errorf("dataset: Days %d < 1", c.Days)
	case c.ModeNoise < 0 || c.ModeNoise > 1:
		return fmt.Errorf("dataset: ModeNoise %f out of [0, 1]", c.ModeNoise)
	}
	return nil
}

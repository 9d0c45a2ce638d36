package dataset

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gicnet/internal/geo"
	"gicnet/internal/stats"
	"gicnet/internal/xrand"
)

// world is the shared default world; generating it once keeps the test
// suite fast.
func world(t *testing.T) *World {
	t.Helper()
	w, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v +- %v", name, got, want, tol)
	}
}

func TestAnchorsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range anchors {
		if seen[a.Name] {
			t.Errorf("duplicate anchor %q", a.Name)
		}
		seen[a.Name] = true
		if err := a.Coord.Validate(); err != nil {
			t.Errorf("anchor %q: %v", a.Name, err)
		}
		if a.Weight <= 0 {
			t.Errorf("anchor %q: weight %v", a.Name, a.Weight)
		}
		if a.Country == "" {
			t.Errorf("anchor %q: empty country", a.Name)
		}
	}
	if len(anchors) < 120 {
		t.Errorf("only %d anchors; need broad coverage", len(anchors))
	}
}

func TestAnchorByName(t *testing.T) {
	a, ok := AnchorByName("singapore")
	if !ok || a.Country != "sg" {
		t.Errorf("AnchorByName(singapore) = %+v, %v", a, ok)
	}
	if _, ok := AnchorByName("atlantis"); ok {
		t.Error("AnchorByName(atlantis) should miss")
	}
}

func TestTrunksReferToRealAnchors(t *testing.T) {
	for _, tr := range trunks {
		if len(tr.Path) < 2 {
			t.Errorf("trunk %q has fewer than 2 landings", tr.Name)
		}
		if tr.LengthKm <= 0 {
			t.Errorf("trunk %q has no length", tr.Name)
		}
		for _, city := range tr.Path {
			if _, ok := AnchorByName(city); !ok {
				t.Errorf("trunk %q references unknown anchor %q", tr.Name, city)
			}
		}
	}
}

func TestTrunkLengthsPhysical(t *testing.T) {
	// A cable cannot be shorter than the great-circle distance through its
	// landings; a stated length below ~95% of the geodesic path means a
	// data-entry error in the trunk table. (Slack >5x geodesic would be
	// suspicious too, but ring systems legitimately run long.)
	for _, tr := range trunks {
		geod := 0.0
		for i := 0; i+1 < len(tr.Path); i++ {
			a, okA := AnchorByName(tr.Path[i])
			b, okB := AnchorByName(tr.Path[i+1])
			if !okA || !okB {
				t.Fatalf("trunk %q references unknown anchor", tr.Name)
			}
			geod += geo.Haversine(a.Coord, b.Coord)
		}
		if tr.LengthKm < geod*0.95 {
			t.Errorf("trunk %q stated %v km but its landings span %.0f km",
				tr.Name, tr.LengthKm, geod)
		}
		if tr.LengthKm > geod*6+500 {
			t.Errorf("trunk %q stated %v km for a %.0f km span; implausible slack",
				tr.Name, tr.LengthKm, geod)
		}
	}
}

func TestSubmarineCalibration(t *testing.T) {
	w := world(t)
	net := w.Submarine

	if len(net.Nodes) != 1241 {
		t.Errorf("landing points = %d, want 1241", len(net.Nodes))
	}
	if len(net.Cables) != 470 {
		t.Errorf("cables = %d, want 470", len(net.Cables))
	}
	lengths := net.CableLengths()
	if len(lengths) != 441 {
		t.Errorf("known lengths = %d, want 441", len(lengths))
	}
	sort.Float64s(lengths)
	approx(t, "median length", lengths[len(lengths)/2], 775, 300)
	approx(t, "p99 length", lengths[int(0.99*float64(len(lengths)))], 28000, 4000)
	approx(t, "max length", lengths[len(lengths)-1], 39000, 1500)
	approx(t, "repeater-free cables @150", float64(net.CablesWithoutRepeaters(150)), 82, 20)
	approx(t, "mean repeaters @150", net.MeanRepeatersPerCable(150), 22.3, 4)

	coords := net.EndpointCoords()
	approx(t, "endpoints above 40", geo.FractionAbove(coords, 40), 0.31, 0.06)
	oneHop := float64(len(net.OneHopEndpointCoords(40))) / float64(len(coords))
	approx(t, "one-hop above 40", oneHop, 0.45, 0.07)
}

func TestSubmarineConnected(t *testing.T) {
	net := world(t).Submarine
	if _, got := net.Graph().Components(nil); got != 1 {
		t.Errorf("%d components over %d nodes, want one", got, len(net.Nodes))
	}
}

func TestSubmarineCountriesPresent(t *testing.T) {
	net := world(t).Submarine
	for _, cc := range []string{"us", "gb", "sg", "in", "cn", "br", "za", "au", "nz", "pt", "jp"} {
		if len(net.NodesOfCountry(cc)) == 0 {
			t.Errorf("no landing points in %q", cc)
		}
	}
}

func TestSubmarineNamedTrunksPreserved(t *testing.T) {
	net := world(t).Submarine
	byName := map[string]int{}
	for i, c := range net.Cables {
		byName[c.Name] = i
	}
	tests := []struct {
		name string
		want float64
	}{
		{"ellalink", 6200},
		{"columbus-iii", 9833},
		{"sea-me-we-3", 39000},
		{"monet", 10556},
	}
	for _, tt := range tests {
		ci, ok := byName[tt.name]
		if !ok {
			t.Errorf("trunk %q missing from generated network", tt.name)
			continue
		}
		got := net.Cables[ci].LengthKm()
		// Branch attachment may extend procedural cables but must not
		// distort named trunks by more than a stray co-location branch.
		if math.Abs(got-tt.want) > tt.want*0.05+50 {
			t.Errorf("trunk %q length = %v, want ~%v", tt.name, got, tt.want)
		}
	}
}

func TestSubmarineShanghaiCablesLong(t *testing.T) {
	// §4.3.4: every cable touching Shanghai is a very long multi-city
	// system (>= ~28000 km).
	net := world(t).Submarine
	var shanghai []int
	for i, nd := range net.Nodes {
		if nd.Country == "cn" && len(nd.Name) >= 11 && nd.Name[3:11] == "shanghai" {
			shanghai = append(shanghai, i)
		}
	}
	if len(shanghai) == 0 {
		t.Fatal("no shanghai landing points")
	}
	cables := net.CablesTouching(shanghai)
	if len(cables) == 0 {
		t.Fatal("no cables touch shanghai")
	}
	for _, ci := range cables {
		if l := net.Cables[ci].LengthKm(); l < 27000 {
			t.Errorf("shanghai cable %q length %v, want >= ~28000", net.Cables[ci].Name, l)
		}
	}
}

func TestSubmarineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double world generation skipped in short mode")
	}
	a, err := GenerateSubmarine(DefaultSubmarineConfig(), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSubmarine(DefaultSubmarineConfig(), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) || len(a.Cables) != len(b.Cables) {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	for i := range a.Cables {
		if a.Cables[i].Name != b.Cables[i].Name || a.Cables[i].LengthKm() != b.Cables[i].LengthKm() {
			t.Fatalf("cable %d differs", i)
		}
	}
}

func TestSubmarineRejectsTinyCableBudget(t *testing.T) {
	cfg := DefaultSubmarineConfig()
	cfg.Cables = 10
	if _, err := GenerateSubmarine(cfg, xrand.New(1)); err == nil {
		t.Error("want error when cables < trunk count")
	}
}

func TestIntertubesCalibration(t *testing.T) {
	w := world(t)
	net := w.Intertubes
	if len(net.Nodes) != 273 {
		t.Errorf("nodes = %d, want 273", len(net.Nodes))
	}
	if len(net.Cables) != 542 {
		t.Errorf("links = %d, want 542", len(net.Cables))
	}
	lengths := net.CableLengths()
	under150 := 0
	for _, l := range lengths {
		if l < 150 {
			under150++
		}
	}
	approx(t, "links under 150km", float64(under150), 258, 70)
	approx(t, "mean repeaters @150", net.MeanRepeatersPerCable(150), 1.7, 0.6)
	approx(t, "endpoints above 40", geo.FractionAbove(net.EndpointCoords(), 40), 0.40, 0.07)
	for _, nd := range net.Nodes {
		if nd.Country != "us" {
			t.Fatalf("non-US node %q in intertubes", nd.Name)
		}
	}
}

func TestIntertubesConnected(t *testing.T) {
	net := world(t).Intertubes
	if _, got := net.Graph().Components(nil); got != 1 {
		t.Errorf("%d components over %d nodes, want one", got, len(net.Nodes))
	}
}

func TestIntertubesConfigValidation(t *testing.T) {
	cfg := DefaultIntertubesConfig()
	cfg.Nodes = 10
	if _, err := GenerateIntertubes(cfg, xrand.New(1)); err == nil {
		t.Error("want error for too few nodes")
	}
	cfg = DefaultIntertubesConfig()
	cfg.Links = 5
	if _, err := GenerateIntertubes(cfg, xrand.New(1)); err == nil {
		t.Error("want error for too few links")
	}
}

func TestITUCalibration(t *testing.T) {
	net := world(t).ITU
	if len(net.Nodes) != 11314 {
		t.Errorf("nodes = %d, want 11314", len(net.Nodes))
	}
	if len(net.Cables) != 11737 {
		t.Errorf("links = %d, want 11737", len(net.Cables))
	}
	lengths := net.CableLengths()
	under150 := 0
	for _, l := range lengths {
		if l < 150 {
			under150++
		}
	}
	approx(t, "links under 150km", float64(under150), 8443, 600)
	approx(t, "mean repeaters @150", net.MeanRepeatersPerCable(150), 0.63, 0.2)
	// The ITU dataset exposes no coordinates.
	for _, nd := range net.Nodes {
		if nd.HasCoord {
			t.Fatal("ITU node exposes coordinates; dataset must be coordinate-free")
		}
	}
}

func TestITUConnected(t *testing.T) {
	net := world(t).ITU
	if _, got := net.Graph().Components(nil); got != 1 {
		t.Errorf("%d components over %d nodes, want one", got, len(net.Nodes))
	}
}

// TestITUNamesAndSegments pins the generator's one-buffer names to their
// fmt forms (nodes numbered within ascending clusters, links in order) and
// checks that each link's segment slice is capped at its one segment, so
// appending to a link's segments never writes into its neighbour's.
func TestITUNamesAndSegments(t *testing.T) {
	net := world(t).ITU
	cluster, rank := -1, -1
	for i, nd := range net.Nodes {
		var c, r int
		if _, err := fmt.Sscanf(nd.Name, "itu-c%d-n%d", &c, &r); err != nil {
			t.Fatalf("node %d name %q: %v", i, nd.Name, err)
		}
		if c == cluster {
			rank++
		} else {
			cluster, rank = cluster+1, 0
		}
		if want := fmt.Sprintf("itu-c%03d-n%02d", cluster, rank); nd.Name != want {
			t.Fatalf("node %d named %q, want %q", i, nd.Name, want)
		}
	}
	for k, c := range net.Cables {
		if want := fmt.Sprintf("itu-link-%05d", k); c.Name != want {
			t.Fatalf("link %d named %q, want %q", k, c.Name, want)
		}
		if len(c.Segments) != 1 || cap(c.Segments) != 1 {
			t.Fatalf("link %d segments len %d cap %d, want 1 and 1", k, len(c.Segments), cap(c.Segments))
		}
	}
}

func TestAppendPaddedMatchesSprintf(t *testing.T) {
	for width := 1; width <= 6; width++ {
		for v := 0; v < 200000; v += 1 + v/50 {
			if got, want := string(appendPadded(nil, v, width)), fmt.Sprintf("%0*d", width, v); got != want {
				t.Fatalf("appendPadded(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}

func TestITUConfigValidation(t *testing.T) {
	cfg := DefaultITUConfig()
	cfg.Nodes = cfg.Clusters // fewer than 2 per cluster
	if _, err := GenerateITU(cfg, xrand.New(1)); err == nil {
		t.Error("want error for undersized clusters")
	}
	cfg = DefaultITUConfig()
	cfg.Links = 10
	if _, err := GenerateITU(cfg, xrand.New(1)); err == nil {
		t.Error("want error for too few links")
	}
}

func TestRouterCalibration(t *testing.T) {
	cat := world(t).Routers
	if len(cat.ASes) != 8192 {
		t.Errorf("AS count = %d, want 8192", len(cat.ASes))
	}
	if n := cat.RouterCount(); n < 100000 || n > 400000 {
		t.Errorf("router count = %d, want 100k-400k", n)
	}
	coords := cat.RouterCoords()
	approx(t, "routers above 40", geo.FractionAbove(coords, 40), 0.38, 0.05)
	reach := cat.ASReachCurve([]float64{40})
	approx(t, "AS reach above 40", reach[0], 0.57, 0.06)

	spread := cat.SpreadSample()
	p50, err := stats.Percentile(spread, 50)
	if err != nil {
		t.Fatal(err)
	}
	p90, _ := stats.Percentile(spread, 90)
	approx(t, "spread p50", p50, 1.723, 0.7)
	approx(t, "spread p90", p90, 18.263, 6)
}

func TestRouterReachCurveMonotone(t *testing.T) {
	cat := world(t).Routers
	curve := cat.ASReachCurve(geo.DefaultThresholds())
	if curve[0] != 1 {
		t.Errorf("reach above 0 = %v, want 1 (every AS has a router)", curve[0])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-12 {
			t.Errorf("reach curve increased at %d", i)
		}
	}
}

func TestRouterConfigValidation(t *testing.T) {
	cfg := DefaultRouterConfig()
	cfg.ASCount = 0
	if _, err := GenerateRouters(cfg, xrand.New(1)); err == nil {
		t.Error("want error for zero ASes")
	}
}

func TestASHelpers(t *testing.T) {
	as := AS{
		ASN:  65000,
		Home: geo.Coord{Lat: 10, Lon: 0},
		Routers: []geo.Coord{
			{Lat: 10, Lon: 0}, {Lat: 12.5, Lon: 3}, {Lat: 8, Lon: -2},
		},
	}
	if got := as.LatitudeSpread(); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("LatitudeSpread = %v, want 4.5", got)
	}
	if !as.PresenceAbove(12) || as.PresenceAbove(13) {
		t.Error("PresenceAbove thresholds wrong")
	}
}

func TestIXPCalibration(t *testing.T) {
	w := world(t)
	if len(w.IXPs) != 1026 {
		t.Errorf("IXPs = %d, want 1026", len(w.IXPs))
	}
	coords := SiteCoords(w.IXPs)
	approx(t, "IXPs above 40", geo.FractionAbove(coords, 40), 0.43, 0.06)
}

func TestIXPConfigValidation(t *testing.T) {
	if _, err := GenerateIXPs(IXPConfig{Count: 0}, xrand.New(1)); err == nil {
		t.Error("want error for zero IXPs")
	}
}

func TestDNSCalibration(t *testing.T) {
	w := world(t)
	if len(w.DNSRoots) != 13 {
		t.Fatalf("root letters = %d, want 13", len(w.DNSRoots))
	}
	total := 0
	for _, l := range w.DNSRoots {
		if len(l.Instances) == 0 {
			t.Errorf("letter %c has no instances", l.Letter)
		}
		total += len(l.Instances)
	}
	if total != 1076 {
		t.Errorf("instances = %d, want 1076", total)
	}
	// Every continent hosts instances; Africa fewer than North America.
	byRegion := map[geo.Region]int{}
	for _, c := range DNSInstanceCoords(w.DNSRoots) {
		byRegion[geo.RegionOf(c)]++
	}
	for _, r := range []geo.Region{geo.RegionNorthAmerica, geo.RegionEurope, geo.RegionAsia, geo.RegionAfrica, geo.RegionSouthAmerica, geo.RegionOceania} {
		if byRegion[r] == 0 {
			t.Errorf("no root instances in %v", r)
		}
	}
	if byRegion[geo.RegionAfrica] >= byRegion[geo.RegionNorthAmerica] {
		t.Errorf("Africa (%d) should host fewer instances than North America (%d)",
			byRegion[geo.RegionAfrica], byRegion[geo.RegionNorthAmerica])
	}
}

func TestDNSConfigValidation(t *testing.T) {
	if _, err := GenerateDNSRoots(DNSConfig{Instances: 5}, xrand.New(1)); err == nil {
		t.Error("want error for fewer instances than letters")
	}
}

func TestDataCentersEmbedded(t *testing.T) {
	g := GoogleDataCenters()
	f := FacebookDataCenters()
	if len(g) < 15 || len(f) < 12 {
		t.Fatalf("site counts: google %d, facebook %d", len(g), len(f))
	}
	for _, s := range append(append([]Site{}, g...), f...) {
		if err := s.Coord.Validate(); err != nil {
			t.Errorf("site %q: %v", s.Name, err)
		}
	}
	// §4.4.2: Google spans hemispheres (Chile, Singapore); Facebook has no
	// Africa or South America presence.
	southG := 0
	for _, s := range g {
		if s.Coord.Lat < 0 {
			southG++
		}
	}
	if southG == 0 {
		t.Error("google should have a southern-hemisphere site")
	}
	for _, s := range f {
		r := geo.RegionOf(s.Coord)
		if r == geo.RegionAfrica || r == geo.RegionSouthAmerica {
			t.Errorf("facebook site %q in %v; paper says none", s.Name, r)
		}
	}
}

func TestGenerateWorldIndependentStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("double world generation skipped in short mode")
	}
	// Changing only the router config must not change the submarine net.
	cfgA := DefaultWorldConfig()
	cfgB := DefaultWorldConfig()
	cfgB.Routers.ASCount = 512
	a, err := GenerateWorld(cfgA, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorld(cfgB, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Submarine.Nodes) != len(b.Submarine.Nodes) {
		t.Fatal("submarine shape changed")
	}
	for i := range a.Submarine.Nodes {
		if a.Submarine.Nodes[i] != b.Submarine.Nodes[i] {
			t.Fatal("router config perturbed the submarine stream")
		}
	}
	if len(b.Routers.ASes) != 512 {
		t.Fatalf("router override ignored: %d", len(b.Routers.ASes))
	}
}

func TestDefaultWorldCached(t *testing.T) {
	a, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Default()
	if a != b {
		t.Error("Default() should return the cached instance")
	}
	if a.Seed != DefaultSeed {
		t.Errorf("seed = %d", a.Seed)
	}
	if len(a.Networks()) != 3 {
		t.Errorf("Networks() = %d", len(a.Networks()))
	}
}

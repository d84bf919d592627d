package scaling

import (
	"math"
	"testing"
	"testing/quick"

	"drampower/internal/core"
	"drampower/internal/desc"
)

func TestRoadmapShape(t *testing.T) {
	nodes := Roadmap()
	if len(nodes) < 12 {
		t.Fatalf("roadmap too short: %d nodes", len(nodes))
	}
	if nodes[0].FeatureNm != 170 {
		t.Errorf("first node: got %g nm, want 170 nm", nodes[0].FeatureNm)
	}
	if last := nodes[len(nodes)-1]; last.FeatureNm != 16 {
		t.Errorf("last node: got %g nm, want 16 nm", last.FeatureNm)
	}
	// Monotonic shrink, years, voltages, data rate growth.
	for i := 1; i < len(nodes); i++ {
		p, n := nodes[i-1], nodes[i]
		if n.FeatureNm >= p.FeatureNm {
			t.Errorf("feature size not shrinking at %s", n.Name())
		}
		if n.Year < p.Year {
			t.Errorf("year not advancing at %s", n.Name())
		}
		if n.Vdd > p.Vdd {
			t.Errorf("Vdd increases at %s", n.Name())
		}
		if n.Vint > p.Vint || n.Vbl > p.Vbl || n.Vpp > p.Vpp {
			t.Errorf("internal voltage increases at %s", n.Name())
		}
		if n.DataRate < p.DataRate {
			t.Errorf("data rate decreases at %s", n.Name())
		}
		if n.Interface < p.Interface {
			t.Errorf("interface regresses at %s", n.Name())
		}
		if n.DensityBits < p.DensityBits {
			t.Errorf("density decreases at %s", n.Name())
		}
	}
}

func TestAverageShrink(t *testing.T) {
	// Section III.C: the average feature shrink between generations is 16 %.
	got := AverageShrink()
	if got < 0.13 || got > 0.19 {
		t.Errorf("average shrink: got %.3f, want about 0.16", got)
	}
}

func TestNodeFor(t *testing.T) {
	n, err := NodeFor(55)
	if err != nil {
		t.Fatal(err)
	}
	if n.Interface != DDR3 {
		t.Errorf("55 nm interface: got %v, want DDR3", n.Interface)
	}
	if n.Name() != "2G DDR3 55nm" {
		t.Errorf("55 nm name: got %q", n.Name())
	}
	if _, err := NodeFor(123); err == nil {
		t.Error("expected error for unknown node")
	}
}

func TestPaperDevices(t *testing.T) {
	// The three devices of Figure 10 / Table III exist on the roadmap.
	for _, c := range []struct {
		nm   float64
		name string
	}{
		{170, "128M SDR 170nm"},
		{55, "2G DDR3 55nm"},
		{18, "16G DDR5 18nm"},
	} {
		n, err := NodeFor(c.nm)
		if err != nil {
			t.Errorf("NodeFor(%g): %v", c.nm, err)
			continue
		}
		if n.Name() != c.name {
			t.Errorf("NodeFor(%g).Name() = %q, want %q", c.nm, n.Name(), c.name)
		}
	}
}

func TestInterfaceProperties(t *testing.T) {
	// Prefetch doubles at each interface transition (DDR3->DDR4 is the
	// one exception: both are 8n prefetch, DDR4 gaining speed from bank
	// groups instead).
	if SDR.Prefetch() != 1 || DDR.Prefetch() != 2 || DDR2.Prefetch() != 4 ||
		DDR3.Prefetch() != 8 || DDR4.Prefetch() != 8 || DDR5.Prefetch() != 16 {
		t.Error("prefetch sequence wrong")
	}
	if SDR.Banks() != 4 || DDR3.Banks() != 8 || DDR5.Banks() != 32 {
		t.Error("bank counts wrong")
	}
	if DDR3.String() != "DDR3" {
		t.Errorf("interface name: %q", DDR3.String())
	}
}

func TestCellPitches(t *testing.T) {
	wl, bl := CellPitches(Cell6F2, 55)
	if math.Abs(wl.Nanometers()-165) > 1e-9 || math.Abs(bl.Nanometers()-110) > 1e-9 {
		t.Errorf("6F² at 55nm: got %g x %g nm, want 165 x 110", wl.Nanometers(), bl.Nanometers())
	}
	wl, bl = CellPitches(Cell8F2, 90)
	if math.Abs(wl.Nanometers()-360) > 1e-9 || math.Abs(bl.Nanometers()-180) > 1e-9 {
		t.Errorf("8F² at 90nm: got %g x %g nm", wl.Nanometers(), bl.Nanometers())
	}
	// Area factors.
	if Cell8F2.AreaFactor() != 8 || Cell6F2.AreaFactor() != 6 || Cell4F2.AreaFactor() != 4 {
		t.Error("cell area factors wrong")
	}
}

func TestTableII(t *testing.T) {
	rows := DisruptiveChanges()
	if len(rows) != 9 {
		t.Fatalf("Table II rows: got %d, want 9", len(rows))
	}
	// Spot checks against the paper.
	if rows[0].Transition != "250nm to 110nm" {
		t.Errorf("row 0 transition: %q", rows[0].Transition)
	}
	found := false
	for _, r := range rows {
		if r.Transition == "55nm to 44nm" && r.Change == "Cu metallization" {
			found = true
		}
	}
	if !found {
		t.Error("Table II missing the Cu metallization row")
	}
}

func TestScaleFrom55(t *testing.T) {
	// At the anchor node every family scales to 1 (except wiring families
	// at or below 44 nm; 55 is above).
	for fam := range ScaleExponents {
		if got := ScaleFrom55(fam, 55); math.Abs(got-1) > 1e-12 {
			t.Errorf("ScaleFrom55(%s, 55) = %g, want 1", fam, got)
		}
	}
	// CellCap does not scale.
	if got := ScaleFrom55("CellCap", 16); math.Abs(got-1) > 1e-12 {
		t.Errorf("cell cap should not scale, got %g", got)
	}
	// Cu metallization kicks in at 44 nm for wiring.
	above := ScaleFrom55("WireCap", 55)
	below := ScaleFrom55("WireCap", 44)
	if below >= above*math.Pow(44.0/55.0, 0.05) {
		t.Errorf("Cu factor missing: WireCap(44)=%g vs WireCap(55)=%g", below, above)
	}
	// Unknown family gets the moderate default.
	if got := ScaleFrom55("Mystery", 110); math.Abs(got-math.Pow(2, 0.5)) > 1e-9 {
		t.Errorf("unknown family at 110nm: got %g, want sqrt(2)", got)
	}
}

// Property: parameters shrink more slowly than the feature size (α ≤ 1 for
// every family), the headline observation of Section III.C.
func TestPropParametersShrinkSlower(t *testing.T) {
	f := func(idxRaw uint8) bool {
		nodes := Roadmap()
		n := nodes[int(idxRaw)%len(nodes)]
		fshrink := n.FeatureNm / 170
		for fam := range ScaleExponents {
			rel := ScaleFrom55(fam, n.FeatureNm) / ScaleFrom55(fam, 170)
			// Allow the Cu step a little slack.
			if rel < fshrink*0.8-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShrinkTable(t *testing.T) {
	nodes, rows := ShrinkTable(Figure5Families())
	if len(nodes) != len(Roadmap()) {
		t.Fatalf("nodes: got %d", len(nodes))
	}
	for fam, series := range rows {
		if len(series) != len(nodes) {
			t.Fatalf("%s: series length %d", fam, len(series))
		}
		if math.Abs(series[0]-1) > 1e-12 {
			t.Errorf("%s: first entry %g, want 1 (normalized to 170nm)", fam, series[0])
		}
		for i := 1; i < len(series); i++ {
			if series[i] > series[i-1]+1e-12 {
				t.Errorf("%s: shrink factor grows at index %d", fam, i)
			}
		}
	}
	fs := FShrinkSeries()
	if fs[0] != 1 || fs[len(fs)-1] >= fs[0] {
		t.Errorf("f-shrink series wrong: %v", fs)
	}
}

func TestGenerationDescriptions(t *testing.T) {
	for _, n := range Roadmap() {
		n := n
		t.Run(n.Name(), func(t *testing.T) {
			d := n.Description()
			if err := d.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			m, err := core.Build(d)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			// Density must match the roadmap exactly.
			if got := m.Density(); got != n.DensityBits {
				t.Errorf("density: got %d, want %d", got, n.DensityBits)
			}
			// Die area in a plausible manufacturing band (the paper aims
			// at 40–60 mm²; allow generous quantization slack).
			mm2 := float64(m.DieArea()) / 1e-6
			if mm2 < 20 || mm2 > 100 {
				t.Errorf("die area %g mm² implausible", mm2)
			}
			// The cell array must dominate the die (array efficiency).
			cellArea := n.Arch.AreaFactor() * n.FeatureNm * n.FeatureNm * 1e-18 *
				float64(n.DensityBits)
			eff := cellArea / float64(m.DieArea())
			if eff < 0.35 || eff > 0.80 {
				t.Errorf("array efficiency %.2f outside [0.35, 0.80]", eff)
			}
			// IDD currents exist and are ordered.
			idd := m.IDD()
			if !(idd.IDD2N < idd.IDD0 && idd.IDD0 < idd.IDD7) {
				t.Errorf("IDD ordering broken: 2N=%v 0=%v 7=%v",
					idd.IDD2N, idd.IDD0, idd.IDD7)
			}
			// Folded architectures appear exactly in the 8F² era.
			wantArch := desc.Open
			if n.Arch == Cell8F2 {
				wantArch = desc.Folded
			}
			if d.Floorplan.Arch != wantArch {
				t.Errorf("bitline arch: got %v", d.Floorplan.Arch)
			}
		})
	}
}

func TestFig13EnergyTrend(t *testing.T) {
	// The headline result of Section IV.C: energy per bit falls by about
	// 1.5x per generation from 170 nm (2000) to 44 nm (2010) and by about
	// 1.2x per generation in the forecast to 16 nm (2018).
	energies := map[float64]float64{}
	for _, n := range Roadmap() {
		m, err := core.Build(n.Description())
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		energies[n.FeatureNm] = float64(m.EnergyPerBitIDD7())
	}
	gensHist := 7.0 // 170 -> 44
	histRatio := math.Pow(energies[170]/energies[44], 1/gensHist)
	if histRatio < 1.35 || histRatio > 1.7 {
		t.Errorf("historic energy reduction %.2fx/gen, want about 1.5x", histRatio)
	}
	gensFore := 6.0 // 44 -> 16
	foreRatio := math.Pow(energies[44]/energies[16], 1/gensFore)
	if foreRatio < 1.1 || foreRatio > 1.35 {
		t.Errorf("forecast energy reduction %.2fx/gen, want about 1.2x", foreRatio)
	}
	// The flattening itself: forecast improvements are slower.
	if foreRatio >= histRatio {
		t.Errorf("forecast (%.2fx) should be slower than historic (%.2fx)",
			foreRatio, histRatio)
	}
}

func TestFig11VoltageTrend(t *testing.T) {
	// Vpp > Vdd >= Vint > Vbl at every node (the four domains of
	// Section III.A keep their ordering across Figure 11).
	for _, n := range Roadmap() {
		if !(n.Vpp > n.Vdd) {
			t.Errorf("%s: Vpp (%v) should exceed Vdd (%v)", n.Name(), n.Vpp, n.Vdd)
		}
		if !(n.Vdd >= n.Vint) {
			t.Errorf("%s: Vdd (%v) should be >= Vint (%v)", n.Name(), n.Vdd, n.Vint)
		}
		if !(n.Vint > n.Vbl) {
			t.Errorf("%s: Vint (%v) should exceed Vbl (%v)", n.Name(), n.Vint, n.Vbl)
		}
	}
}

func TestFig12DataRateTrend(t *testing.T) {
	// Data rate per pin doubles at each interface transition (within
	// rounding): compare the peak rate of each interface generation.
	peak := map[Interface]float64{}
	for _, n := range Roadmap() {
		if r := float64(n.DataRate); r > peak[n.Interface] {
			peak[n.Interface] = r
		}
	}
	for i := DDR; i <= DDR5; i++ {
		ratio := peak[i] / peak[i-1]
		if ratio < 1.8 || ratio > 2.6 {
			t.Errorf("peak data rate %v->%v: ratio %.2f, want about 2", i-1, i, ratio)
		}
	}
}

func TestBitsPerActivationGrowAcrossGenerations(t *testing.T) {
	// The bandwidth shift of Section IV.B: activation rates are pinned by
	// row timings while per-pin bandwidth doubles per interface, so the
	// data moved per activation in the interleaved pattern grows
	// monotonically across the roadmap.
	prev := 0
	prevName := ""
	byIface := map[Interface]int{}
	for _, n := range Roadmap() {
		m, err := core.Build(n.Description())
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		bits := m.BurstsPerActivation() * m.BitsPerBurst()
		if bits < prev {
			t.Errorf("bits per activation shrink from %s (%d) to %s (%d)",
				prevName, prev, n.Name(), bits)
		}
		prev, prevName = bits, n.Name()
		if bits > byIface[n.Interface] {
			byIface[n.Interface] = bits
		}
	}
	if byIface[DDR5] < 4*byIface[DDR2] {
		t.Errorf("DDR5 moves %d bits per activation, want at least 4x DDR2's %d",
			byIface[DDR5], byIface[DDR2])
	}
}

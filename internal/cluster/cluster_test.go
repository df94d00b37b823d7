package cluster

import (
	"math"
	"testing"

	"powerstack/internal/cpumodel"
	"powerstack/internal/units"
)

// smallCluster keeps most tests fast; the Figure 6 test uses the full 2000.
func smallCluster(t *testing.T, size int) *Cluster {
	t.Helper()
	c, err := New(size, cpumodel.Quartz(), cpumodel.QuartzVariation(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, cpumodel.Quartz(), cpumodel.QuartzVariation(), 1); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := New(-5, cpumodel.Quartz(), cpumodel.QuartzVariation(), 1); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestNewDeterministicBySeed(t *testing.T) {
	a := smallCluster(t, 50)
	b := smallCluster(t, 50)
	for i := 0; i < 50; i++ {
		if a.Node(i).Eta() != b.Node(i).Eta() {
			t.Fatal("same seed produced different etas")
		}
	}
	c, err := New(50, cpumodel.Quartz(), cpumodel.QuartzVariation(), 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 50; i++ {
		if a.Node(i).Eta() != c.Node(i).Eta() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical etas")
	}
}

func TestNodeIDsFollowConvention(t *testing.T) {
	c := smallCluster(t, 3)
	if got := c.Node(0).ID; got != "quartz0001" {
		t.Errorf("first ID = %q", got)
	}
	if got := c.Node(2).ID; got != "quartz0003" {
		t.Errorf("third ID = %q", got)
	}
}

func TestFrequencySurveyRestoresLimits(t *testing.T) {
	c := smallCluster(t, 10)
	before := make([]units.Power, 10)
	for i := 0; i < 10; i++ {
		p, err := c.Node(i).PowerLimit()
		if err != nil {
			t.Fatal(err)
		}
		before[i] = p
	}
	if _, err := c.FrequencySurvey(SurveyWorkload(), SurveyCap, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, err := c.Node(i).PowerLimit()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Watts()-before[i].Watts()) > 0.5 {
			t.Errorf("node %d limit %v, want restored %v", i, p, before[i])
		}
	}
}

func TestFrequencySurveyBand(t *testing.T) {
	c := smallCluster(t, 100)
	freqs, err := c.FrequencySurvey(SurveyWorkload(), SurveyCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != 100 {
		t.Fatalf("len = %d", len(freqs))
	}
	for i, f := range freqs {
		if f < 1.5 || f > 2.1 {
			t.Errorf("node %d achieved %v GHz, outside the Figure 6 band", i, f)
		}
	}
}

// TestFigure6Reproduction runs the full methodology on 2000 nodes and
// checks the cluster structure the paper reports: three clusters, the
// medium one the largest (n=918 of 2000), centroids ordered and separated.
func TestFigure6Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-node survey in -short mode")
	}
	// The Figure 6 population: 2000 nodes with the calibrated variation
	// mixture.
	const quartzSize = 2000
	c, err := New(quartzSize, cpumodel.Quartz(), cpumodel.QuartzVariation(), 7)
	if err != nil {
		t.Fatal(err)
	}
	medium, cl, err := c.MediumNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Sizes) != 3 {
		t.Fatalf("clusters = %d", len(cl.Sizes))
	}
	total := cl.Sizes[0] + cl.Sizes[1] + cl.Sizes[2]
	if total != quartzSize {
		t.Errorf("cluster sizes sum to %d", total)
	}
	// The paper's proportions: 522 low, 918 medium, 560 high. Sampling
	// noise and k-means boundaries allow some slack.
	if math.Abs(float64(cl.Sizes[1]-918)) > 120 {
		t.Errorf("medium cluster size = %d, want ~918", cl.Sizes[1])
	}
	if len(medium) != cl.Sizes[1] {
		t.Errorf("MediumNodes returned %d, clustering says %d", len(medium), cl.Sizes[1])
	}
	if !(cl.Centroids[0] < cl.Centroids[1] && cl.Centroids[1] < cl.Centroids[2]) {
		t.Errorf("centroids not ascending: %v", cl.Centroids)
	}
	if cl.Centroids[2]-cl.Centroids[0] < 0.05 {
		t.Errorf("cluster separation too small: %v", cl.Centroids)
	}
}

func TestAllocate(t *testing.T) {
	c := smallCluster(t, 10)
	alloc, rest, err := Allocate(c.Nodes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc) != 4 || len(rest) != 6 {
		t.Errorf("alloc=%d rest=%d", len(alloc), len(rest))
	}
	if _, _, err := Allocate(c.Nodes(), 11); err == nil {
		t.Error("expected error for oversubscription")
	}
	if _, _, err := Allocate(c.Nodes(), -1); err == nil {
		t.Error("expected error for negative want")
	}
	all, none, err := Allocate(c.Nodes(), 10)
	if err != nil || len(all) != 10 || len(none) != 0 {
		t.Errorf("full allocation: %d, %d, %v", len(all), len(none), err)
	}
}

func TestTotals(t *testing.T) {
	c := smallCluster(t, 900)
	// Table III: TDP of all CPUs in a 900-node mix is 216 kW.
	if got := TotalTDP(c.Nodes()).Kilowatts(); math.Abs(got-216) > 1e-9 {
		t.Errorf("TotalTDP = %v kW, want 216", got)
	}
}

func TestClonePoolIsolation(t *testing.T) {
	c := smallCluster(t, 4)
	pool := c.Nodes()
	clones := ClonePool(pool)
	if len(clones) != len(pool) {
		t.Fatalf("clones = %d, want %d", len(clones), len(pool))
	}
	for i := range clones {
		if clones[i] == pool[i] {
			t.Fatalf("clone %d aliases the original node", i)
		}
		if clones[i].ID != pool[i].ID || clones[i].Eta() != pool[i].Eta() {
			t.Errorf("clone %d: ID=%q eta=%v, want %q/%v",
				i, clones[i].ID, clones[i].Eta(), pool[i].ID, pool[i].Eta())
		}
	}
	// Capping a cloned node leaves the source pool at TDP.
	if _, err := clones[0].SetPowerLimit(150 * units.Watt); err != nil {
		t.Fatal(err)
	}
	limit, err := pool[0].PowerLimit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(limit.Watts()-pool[0].TDP().Watts()) > 0.5 {
		t.Errorf("source limit = %v after clone write, want TDP", limit)
	}
}

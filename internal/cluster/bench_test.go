package cluster

import (
	"testing"

	"powerstack/internal/cpumodel"
	"powerstack/internal/units"
)

// BenchmarkPoolStateRestore times a campaign worker's per-scenario reset:
// restoring a scrambled 256-node pool back to pristine. The register arena
// resets in one bulk copy; the per-node remainder is the scalar/model
// state.
func BenchmarkPoolStateRestore(b *testing.B) {
	ps, _ := testPoolState(b, 256, 17)
	for _, n := range ps.Nodes() {
		n.SetPowerLimit(150 * units.Watt)
		n.SetDegradation(1.3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.Restore(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClonePool is the allocating alternative to the same reset: a
// fresh deep clone of every node.
func BenchmarkClonePool(b *testing.B) {
	c, err := New(256, cpumodel.Quartz(), cpumodel.QuartzVariation(), 17)
	if err != nil {
		b.Fatal(err)
	}
	src := c.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool := ClonePool(src); len(pool) != len(src) {
			b.Fatal("short clone")
		}
	}
}

package cluster

import (
	"runtime"
	"testing"

	"powerstack/internal/cpumodel"
	"powerstack/internal/node"
)

// TestClusterNodesShareOneSpec pins that a pool stores its platform spec
// once: every socket of every node of a cluster, of its clones and of a
// restored PoolState points at the same Spec, and the value each node
// reports is the one the cluster was built from.
func TestClusterNodesShareOneSpec(t *testing.T) {
	spec := cpumodel.Quartz()
	c, err := New(64, spec, cpumodel.QuartzVariation(), 5)
	if err != nil {
		t.Fatal(err)
	}
	shared := c.Node(0).Sockets()[0].Model.Spec
	check := func(name string, pool []*node.Node) {
		t.Helper()
		for _, n := range pool {
			for si, su := range n.Sockets() {
				if su.Model.Spec != shared {
					t.Fatalf("%s: node %s socket %d holds its own spec", name, n.ID, si)
				}
			}
			if n.Spec() != spec {
				t.Fatalf("%s: node %s reports spec %+v, built from %+v", name, n.ID, n.Spec(), spec)
			}
		}
	}
	check("cluster", c.Nodes())
	check("clone", ClonePool(c.Nodes()))
	ps := NewPoolState(c.Nodes())
	scramble(t, ps.Nodes(), 9)
	if err := ps.Restore(); err != nil {
		t.Fatal(err)
	}
	check("pool state", ps.Nodes())
}

// TestClusterFootprintPerNode bounds the bytes cluster.New allocates per
// node. With both sockets pointing at the shared spec a node costs 864
// bytes (Go 1.24, amd64); with a private 256-byte Spec value in every
// socket it cost 1376. The bound sits between the two. The 4000-node pool
// stays below the size at which New fans out to goroutines, so the count
// covers only the build itself.
func TestClusterFootprintPerNode(t *testing.T) {
	const size = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(size, cpumodel.Quartz(), cpumodel.QuartzVariation(), 3)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / size
	t.Logf("cluster.New allocates %.0f bytes per node", perNode)
	if perNode > 1100 {
		t.Errorf("cluster.New allocates %.0f bytes per node, want at most 1100 (sockets must share one spec)", perNode)
	}
}

package rm

import (
	"sort"

	"powerstack/internal/node"
)

// Quarantined returns the drained nodes, sorted by ID.
func (m *Manager) Quarantined() []*node.Node {
	out := make([]*node.Node, 0, m.nDrained)
	for i, n := range m.pool {
		if m.drained[i] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

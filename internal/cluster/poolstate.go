package cluster

import (
	"fmt"
	"slices"

	"powerstack/internal/node"
)

// PoolState is a clone pool that can be reset in place: a ClonePool of the
// source plus the pristine image of its register arena, captured once at
// build time. Restoring the whole pool is then a single bulk copy of the
// arena plus a cheap per-node auxiliary reset — no per-register work and no
// allocation — which is how a campaign worker reuses one pool across every
// scenario it runs, even at 100k nodes.
type PoolState struct {
	src   []*node.Node
	nodes []*node.Node
	// words is the live arena the pool's devices read and write; prist is
	// the pristine image Restore copies back over it.
	words []uint64
	prist []uint64
}

// NewPoolState clones src into a resettable pool. The source nodes must
// stay unmutated while the pool is in use: they are the auxiliary state
// every Restore reverts to.
func NewPoolState(src []*node.Node) *PoolState {
	nodes, words := cloneArena(src)
	return &PoolState{src: src, nodes: nodes, words: words, prist: slices.Clone(words)}
}

// Nodes returns the pool's node views. The slice is owned by the PoolState;
// callers use the nodes freely but must not replace entries.
func (ps *PoolState) Nodes() []*node.Node { return ps.nodes }

// Restore reverts every node to the pristine source state: one flat copy of
// the register arena, then the per-node auxiliary reset (models, RAPL
// accounting, armed faults, degradation, sinks). The result is
// byte-equivalent to a fresh ClonePool of the source.
func (ps *PoolState) Restore() error {
	copy(ps.words, ps.prist)
	for i, n := range ps.nodes {
		if err := n.RestoreAuxFrom(ps.src[i]); err != nil {
			return err
		}
	}
	return nil
}

// CopyFrom makes ps a copy of src in its current state: one flat copy of
// src's register arena, then each node's auxiliary state (models, RAPL
// accounting, armed faults with their remaining budgets, degradation).
// Both pools must be clones of the same source pool. A forked facility run
// continues on the copy while src continues on its own.
func (ps *PoolState) CopyFrom(src *PoolState) error {
	if len(ps.words) != len(src.words) || len(ps.nodes) != len(src.nodes) {
		return fmt.Errorf("cluster: cannot copy a %d-node pool onto a %d-node pool", len(src.nodes), len(ps.nodes))
	}
	copy(ps.words, src.words)
	for i, n := range ps.nodes {
		if err := n.RestoreAuxFrom(src.nodes[i]); err != nil {
			return err
		}
	}
	return nil
}

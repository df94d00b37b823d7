// Package node assembles the per-host hardware stack: two Broadwell sockets
// (Table I), each with a simulated MSR register file and a RAPL package
// domain. All power control flows in through MSR_PKG_POWER_LIMIT and all
// telemetry flows out through MSR_PKG_ENERGY_STATUS and APERF/MPERF,
// exactly the plumbing GEOPM uses via msr-safe on the real Quartz system.
//
// The node is the meeting point of the two halves of the stack: the
// resource manager and job runtime write limits; the bulk-synchronous
// engine (package bsp) asks the node to execute iterations, which advances
// the counters those layers later read.
package node

import (
	"fmt"
	"time"

	"powerstack/internal/cpumodel"
	"powerstack/internal/msr"
	"powerstack/internal/obs"
	"powerstack/internal/rapl"
	"powerstack/internal/units"
)

// SocketUnit is one physical socket: its analytic model plus the MSR/RAPL
// plumbing bound to it.
type SocketUnit struct {
	Model cpumodel.Socket
	Dev   *msr.Device
	Rapl  *rapl.Domain
}

// Node is one compute host.
type Node struct {
	ID      string
	sockets []*SocketUnit

	// IdleWait switches barrier waiting from spin-polling (the MPI
	// default the paper measures) to blocking in a C-state. Used by the
	// spin-wait ablation; production runs leave it false.
	IdleWait bool

	// degrade multiplies the node's work time when > 1, modeling a slowed
	// host (thermal throttling, a sick DIMM, a noisy neighbor on shared
	// storage). Fault plans set it through SetDegradation; zero means
	// healthy.
	degrade float64

	// op memoizes the steady-state operating point for the last
	// (phase, cap) pair: across the 100 iterations of a run the cap and
	// phase are constant, so inverting the cap once per run instead of
	// once per iteration dominates simulation speed.
	op      opPoint
	opValid bool
	// work and spin hold the shared cap tables (cpumodel.CapTableFor) the
	// last resolve inverted on. A miss under a new cap reuses them instead
	// of looking the table up again; work is replaced when its own Phase
	// no longer matches. The socket spec, the tables' other key, is fixed
	// for a node's lifetime.
	work, spin *cpumodel.CapTable

	// slot is the node's position in the pool of the resource manager
	// that owns it; see SetSlot.
	slot int

	// sink receives limit-write events when observability is enabled;
	// nil costs one comparison per write.
	sink *obs.Sink
}

// SetObs attaches an observability sink to the node and its RAPL domains.
// A nil sink detaches.
func (n *Node) SetObs(s *obs.Sink) {
	n.sink = s
	for _, su := range n.sockets {
		su.Rapl.SetObs(s, n.ID)
	}
}

// opPoint caches a resolved steady state.
type opPoint struct {
	traffic  units.Bytes
	flops    units.Flops
	vector   int
	cap      units.Power
	idleWait bool

	fWork units.Frequency
	tWork time.Duration
	pWork units.Power
	fSpin units.Frequency
	pSpin units.Power
	// uMem is the memory-pipe utilization of the work phase, which sets
	// the DRAM domain's draw.
	uMem float64
}

// resolve returns the steady-state operating point of the phase under the
// given per-socket cap, memoized in n.op.
func (n *Node) resolve(ph *cpumodel.Phase, cap units.Power) *opPoint {
	op := &n.op
	if n.opValid &&
		op.traffic == ph.Work.Traffic && op.flops == ph.Work.Flops &&
		op.vector == int(ph.Vector) && op.cap == cap &&
		op.idleWait == n.IdleWait {
		return op
	}
	m := &n.sockets[0].Model
	if n.work == nil || n.work.Phase() != *ph {
		n.work = cpumodel.CapTableFor(m.Spec, *ph)
	}
	if n.spin == nil {
		n.spin = cpumodel.SpinCapTableFor(m.Spec)
	}
	fWork := n.work.FrequencyForCap(m.Eta, cap)
	fSpin := n.spin.FrequencyForCap(m.Eta, cap)
	pSpin := m.SpinPowerAt(fSpin)
	if n.IdleWait {
		fSpin = m.Spec.MinFreq
		pSpin = m.IdleWaitPower()
	}
	tWork, pWork, util := m.Operate(*ph, fWork)
	*op = opPoint{
		traffic:  ph.Work.Traffic,
		flops:    ph.Work.Flops,
		vector:   int(ph.Vector),
		cap:      cap,
		idleWait: n.IdleWait,
		fWork:    fWork,
		tWork:    tWork,
		pWork:    pWork,
		fSpin:    fSpin,
		pSpin:    pSpin,
		uMem:     util.Mem,
	}
	n.opValid = true
	return op
}

// SetDegradation sets a work-time multiplier modeling a slowed host; f <= 1
// restores nominal speed. The slowdown stretches compute time (the node
// arrives later at every barrier) without changing the power model, which is
// how a throttling host looks to the rest of the stack.
func (n *Node) SetDegradation(f float64) {
	if f <= 1 {
		n.degrade = 0
		return
	}
	n.degrade = f
}

// Degradation returns the current work-time multiplier (1 when healthy).
func (n *Node) Degradation() float64 {
	if n.degrade > 1 {
		return n.degrade
	}
	return 1
}

// Faulty reports whether any of the node's MSR devices holds a sticky or
// armed injected fault (msr.Device.Faulty).
func (n *Node) Faulty() bool {
	for _, su := range n.sockets {
		if su.Dev.Faulty() {
			return true
		}
	}
	return false
}

// Slot returns the node's position in its resource manager's pool.
func (n *Node) Slot() int { return n.slot }

// SetSlot records the node's position in a pool. rm.NewManager assigns it
// once per node, so per-node manager state can live in slices indexed by
// slot instead of maps keyed by ID; a node belongs to one manager at a
// time.
func (n *Node) SetSlot(i int) { n.slot = i }

// SocketsPerNode matches the dual-socket Quartz nodes.
const SocketsPerNode = 2

// New builds a node with two sockets sharing the same variation multiplier
// eta (part binning is per-node at Quartz granularity). The sockets keep
// the spec pointer, which every node of a pool shares; it must not be
// modified afterwards. The MSR devices are programmed with the power-on
// defaults: PL1 = TDP, enabled and clamped.
func New(id string, spec *cpumodel.Spec, eta float64) (*Node, error) {
	n := &Node{ID: id}
	for i := 0; i < SocketsPerNode; i++ {
		dev := msr.NewDevice(nil)
		rapl.ProgramDefaults(dev, spec.TDP, spec.MinPowerLimit, spec.TDP*1.5)
		dom, err := rapl.NewDomain(dev)
		if err != nil {
			return nil, fmt.Errorf("node %s socket %d: %w", id, i, err)
		}
		n.sockets = append(n.sockets, &SocketUnit{
			Model: cpumodel.NewSocket(spec, eta),
			Dev:   dev,
			Rapl:  dom,
		})
	}
	return n, nil
}

// RestoreAuxFrom resets the node in place to the state of src, which must
// be the same-ID node it was cloned from, except for the dense register
// words: the node scalars, socket models, RAPL accounting, and the
// register files' auxiliary state (armed faults, privileged spill) revert,
// and the observability sink detaches. cluster.PoolState pairs it with one
// flat copy of the pristine word arena to restore a whole pool without
// walking registers device by device.
func (n *Node) RestoreAuxFrom(src *Node) error {
	if n.ID != src.ID || len(n.sockets) != len(src.sockets) {
		return fmt.Errorf("node: cannot restore %s from %s", n.ID, src.ID)
	}
	n.IdleWait = src.IdleWait
	n.degrade = src.degrade
	n.op = src.op
	n.opValid = src.opValid
	n.sink = nil
	for i, su := range n.sockets {
		ss := src.sockets[i]
		su.Model = ss.Model
		su.Dev.RestoreAuxFrom(ss.Dev)
		su.Rapl.RestoreFrom(ss.Rapl)
	}
	return nil
}

// WordCount returns the number of dense register words across the node's
// sockets — the arena space CloneInto needs.
func (n *Node) WordCount() int {
	total := 0
	for _, su := range n.sockets {
		total += su.Dev.WordCount()
	}
	return total
}

// CloneInto returns a deep copy of the node whose registers' dense storage
// is carved out of backing, which must be exactly WordCount() long (it
// panics otherwise). Each socket's analytic model (with its variation
// multiplier), MSR register file (including injected faults), and RAPL
// domain accounting are duplicated, so the clone and the original evolve
// fully independently. The memoized operating point carries over (it is
// derived purely from register contents, which are copied verbatim). The
// observability sink does not carry over; attach one with SetObs.
func (n *Node) CloneInto(backing []uint64) *Node {
	if len(backing) != n.WordCount() {
		panic(fmt.Sprintf("node %s: backing has %d words, need %d", n.ID, len(backing), n.WordCount()))
	}
	c := &Node{ID: n.ID, IdleWait: n.IdleWait, degrade: n.degrade, op: n.op, opValid: n.opValid,
		work: n.work, spin: n.spin, slot: n.slot}
	c.sockets = make([]*SocketUnit, 0, len(n.sockets))
	off := 0
	for _, su := range n.sockets {
		w := su.Dev.WordCount()
		dev := su.Dev.CloneOnto(backing[off : off+w : off+w])
		off += w
		c.sockets = append(c.sockets, &SocketUnit{
			Model: su.Model,
			Dev:   dev,
			Rapl:  su.Rapl.Clone(dev),
		})
	}
	return c
}

// SnapshotWords appends the node's dense register words (socket order) to
// dst and returns the extended slice.
func (n *Node) SnapshotWords(dst []uint64) []uint64 {
	for _, su := range n.sockets {
		dst = su.Dev.SnapshotWords(dst)
	}
	return dst
}

// Sockets returns the node's socket units.
func (n *Node) Sockets() []*SocketUnit { return n.sockets }

// Spec returns the socket spec (identical across sockets).
func (n *Node) Spec() cpumodel.Spec { return *n.spec() }

// spec is the spec the node's sockets share, for hot paths that read a
// field or two.
func (n *Node) spec() *cpumodel.Spec { return n.sockets[0].Model.Spec }

// Eta returns the node's variation multiplier.
func (n *Node) Eta() float64 { return n.sockets[0].Model.Eta }

// TDP returns the node-level thermal design power (all sockets).
func (n *Node) TDP() units.Power {
	return n.spec().TDP * SocketsPerNode
}

// MinLimit returns the node-level minimum settable power limit.
func (n *Node) MinLimit() units.Power {
	return n.spec().MinPowerLimit * SocketsPerNode
}

// SetPowerLimit programs the node-level limit, split evenly across sockets,
// clamped to the settable range. It returns the limit actually programmed
// (after clamping and RAPL quantization).
func (n *Node) SetPowerLimit(total units.Power) (units.Power, error) {
	return n.SetPowerLimitCached(total, nil)
}

// SetPowerLimitCached is SetPowerLimit with the PL1 field encodings served
// from enc (see rapl.LimitEncoder); nil enc encodes directly. The register
// traffic is identical either way.
func (n *Node) SetPowerLimitCached(total units.Power, enc *rapl.LimitEncoder) (units.Power, error) {
	perSocket := units.Clamp(total/SocketsPerNode, n.spec().MinPowerLimit, n.spec().TDP)
	for _, s := range n.sockets {
		err := s.Rapl.SetLimitCached(rapl.Limit{
			Power:      perSocket,
			TimeWindow: time.Second,
			Enabled:    true,
			Clamped:    true,
		}, enc)
		if err != nil {
			return 0, fmt.Errorf("node %s: %w", n.ID, err)
		}
	}
	programmed, err := n.PowerLimit()
	if err != nil {
		return 0, err
	}
	n.sink.LimitWrite(n.ID, programmed.Watts())
	return programmed, nil
}

// PowerLimit reads back the node-level limit (sum of socket PL1s).
func (n *Node) PowerLimit() (units.Power, error) {
	var total units.Power
	for _, s := range n.sockets {
		p, err := s.Rapl.ReadLimitPower()
		if err != nil {
			return 0, fmt.Errorf("node %s: %w", n.ID, err)
		}
		total += p
	}
	return total, nil
}

// Energy reads the node-level accumulated energy through the RAPL domains
// (wraparound-safe).
func (n *Node) Energy() (units.Energy, error) {
	var total units.Energy
	for _, s := range n.sockets {
		e, err := s.Rapl.ReadEnergy()
		if err != nil {
			return 0, fmt.Errorf("node %s: %w", n.ID, err)
		}
		total += e
	}
	return total, nil
}

// PhaseResult reports one node's share of one bulk-synchronous iteration.
type PhaseResult struct {
	// WorkTime is the time the node computed before reaching the barrier.
	WorkTime time.Duration
	// Energy is the node's CPU (package) energy over the full iteration
	// (work + spin).
	Energy units.Energy
	// DRAMEnergy is the node's DRAM-domain energy over the iteration —
	// measured telemetry, outside the paper's CPU-power control scope.
	DRAMEnergy units.Energy
	// MeanPower is Energy over the iteration time.
	MeanPower units.Power
	// AchievedFreq is the time-weighted achieved frequency, as
	// APERF/MPERF would report it.
	AchievedFreq units.Frequency
	// Flops is the floating-point work completed (all ranks).
	Flops units.Flops
}

// PlanIteration is the first half of one bulk-synchronous iteration: it
// reads socket 0's PL1 limit, resolves the phase's operating point under it,
// and returns the node's work time (degradation included). Both sockets run
// identical rank work, so the node time equals the socket time.
func (n *Node) PlanIteration(ph *cpumodel.Phase) (time.Duration, error) {
	limit, err := n.sockets[0].Rapl.ReadLimitPower()
	if err != nil {
		return 0, err
	}
	return time.Duration(float64(n.resolve(ph, limit).tWork) * n.Degradation()), nil
}

// FinishIteration executes the iteration PlanIteration planned, with no
// limit write in between: the node computes for its work time, spins
// at the barrier until iterTime, advances its counters, and writes its
// result into res. iterTime below the work time (0 for a critical host)
// extends to it. workScale multiplies the work time (1 = nominal,
// non-positive = 1); the BSP engine injects per-iteration OS noise with it,
// the source of Figure 8's confidence intervals. On a device holding an
// injected fault (Faulty) PL1 is read and resolved again, so an armed read
// countdown advances once per half of the iteration.
func (n *Node) FinishIteration(ph *cpumodel.Phase, iterTime time.Duration, workScale float64, res *PhaseResult) error {
	op := &n.op
	if n.Faulty() {
		limit, err := n.sockets[0].Rapl.ReadLimitPower()
		if err != nil {
			return err
		}
		op = n.resolve(ph, limit)
	}
	if workScale <= 0 {
		workScale = 1
	}

	tWork := time.Duration(float64(op.tWork) * workScale * n.Degradation())
	if tWork > iterTime {
		// The barrier cannot release before the slowest host; treat this
		// host as critical.
		iterTime = tWork
	}
	tSpin := iterTime - tWork
	// Each duration converts to seconds once; the energies are
	// units.EnergyOver and the mean power units.MeanPower on these values.
	secs, workS, spinS := iterTime.Seconds(), tWork.Seconds(), tSpin.Seconds()

	res.WorkTime = tWork
	perSocket := units.Energy(float64(op.pWork)*workS) + units.Energy(float64(op.pSpin)*spinS)
	res.Energy = perSocket * SocketsPerNode
	m := &n.sockets[0].Model
	dramPerSocket := units.Energy(float64(m.DRAMPowerAt(op.uMem))*workS) +
		units.Energy(float64(m.DRAMPowerAt(0))*spinS)
	res.DRAMEnergy = dramPerSocket * SocketsPerNode
	res.MeanPower, res.AchievedFreq = 0, 0
	if secs > 0 {
		res.MeanPower = units.Power(float64(res.Energy) / secs)
		res.AchievedFreq = units.Frequency((op.fWork.Hz()*workS + op.fSpin.Hz()*spinS) / secs)
	}
	res.Flops = ph.Work.Flops * units.Flops(n.spec().ActiveCores*SocketsPerNode)

	// Advance the hardware counters so telemetry readers see this
	// iteration: energy into the wrapping accumulators, APERF at the
	// achieved frequency, MPERF and TSC at the base clock. A socket whose
	// RAPL energy unit matches the previous socket's reuses its encodings.
	base := uint64(n.spec().BaseFreq.Hz() * secs)
	aperf := uint64(res.AchievedFreq.Hz() * secs)
	unit := units.Energy(-1)
	var pkg, dram uint64
	for _, s := range n.sockets {
		if u := s.Rapl.EnergyUnit(); u != unit {
			unit = u
			pkg, dram = s.Rapl.EncodeEnergyDelta(perSocket), s.Rapl.EncodeEnergyDelta(dramPerSocket)
		}
		s.Dev.AdvanceIteration(pkg, dram, aperf, base)
	}
	return nil
}

// CreditIterations advances the hardware counters over repetitions from
// (inclusive) to to (exclusive) of the given iteration result, counted from
// the iteration's probe — the fast-forward path long facility simulations
// use to skip over steady-state iterations without recomputing them. The
// operating point is unchanged, so energy and clock counts scale linearly.
//
// Each counter advances by encode(x·to) − encode(x·from), where x is the
// per-iteration amount and encode the counter's integer encoding. The
// credit telescopes: crediting [0, a) and then [a, b) programs exactly the
// registers one credit of [0, b) does, so when a caller settles is
// unobservable. from = 0 credits to repetitions in one step.
func (n *Node) CreditIterations(pr *PhaseResult, iterTime time.Duration, from, to int) {
	if from < 0 || to <= from || iterTime <= 0 {
		return
	}
	perSocket := pr.Energy / SocketsPerNode
	dramPerSocket := pr.DRAMEnergy / SocketsPerNode
	baseHz, aHz, secs := n.spec().BaseFreq.Hz(), pr.AchievedFreq.Hz(), iterTime.Seconds()
	cycles := func(hz float64, k int) uint64 { return uint64(hz * (secs * float64(k))) }
	base := cycles(baseHz, to) - cycles(baseHz, from)
	aperf := cycles(aHz, to) - cycles(aHz, from)
	// Encodings are shared across sockets as in FinishIteration.
	unit := units.Energy(-1)
	var pkg, dram uint64
	for _, s := range n.sockets {
		if u := s.Rapl.EnergyUnit(); u != unit {
			unit = u
			r := s.Rapl
			pkg = r.EncodeEnergyDelta(perSocket*units.Energy(to)) - r.EncodeEnergyDelta(perSocket*units.Energy(from))
			dram = r.EncodeEnergyDelta(dramPerSocket*units.Energy(to)) - r.EncodeEnergyDelta(dramPerSocket*units.Energy(from))
		}
		s.Dev.AdvanceIteration(pkg, dram, aperf, base)
	}
}

// AchievedFrequency returns the achieved frequency implied by the APERF and
// MPERF deltas since the given previous counter snapshot, plus the new
// snapshot. This is how Figure 6's per-node frequencies are measured.
func (n *Node) AchievedFrequency(prevAperf, prevMperf uint64) (units.Frequency, uint64, uint64) {
	s := n.sockets[0]
	aperf := s.Dev.PrivilegedRead(msr.IA32APerf)
	mperf := s.Dev.PrivilegedRead(msr.IA32MPerf)
	da := aperf - prevAperf
	dm := mperf - prevMperf
	if dm == 0 {
		return 0, aperf, mperf
	}
	ratio := float64(da) / float64(dm)
	return units.Frequency(ratio * n.spec().BaseFreq.Hz()), aperf, mperf
}

// Package msr simulates the model-specific-register (MSR) interface that the
// real system accesses through the msr-safe Linux kernel module [LLNL
// msr-safe]. Every power observation and control action in the stack flows
// through this register file, exactly as GEOPM's RAPL plumbing does on
// hardware: the RAPL package decodes MSR_RAPL_POWER_UNIT, programs
// MSR_PKG_POWER_LIMIT, and reads the wrapping 32-bit MSR_PKG_ENERGY_STATUS
// accumulator.
//
// The device enforces an msr-safe-style allowlist: reads and writes are only
// permitted for registers on the list, and writes are masked to the
// writable-bit mask, mirroring how msr-safe protects unprivileged access.
// The simulator itself updates counters through the privileged interface.
//
// A Device is single-owner, like the node and RAPL domain that wrap it: one
// goroutine at a time accesses it, and ownership passes on only through a
// happens-before edge. Every caller in the stack already provides one — the
// facility's fork-join worker pool (tasks touch disjoint hosts), the
// service's per-instance mutex, the private ClonePool copy of each sim cell,
// and the private PoolState of each campaign worker. Several goroutines may
// read a quiescent device at once (CloneOnto, SnapshotWords), which is how
// cluster.ClonePool copies one template pool into many.
package msr

import (
	"fmt"
	"sort"
)

// Register addresses for the MSRs used by the stack. Values match the Intel
// SDM addresses so that register dumps read like real msr-safe output.
const (
	// IA32TimeStampCounter is the TSC, incremented at the base clock.
	IA32TimeStampCounter uint32 = 0x010
	// IA32MPerf counts at the base (P1) frequency while not halted.
	IA32MPerf uint32 = 0x0E7
	// IA32APerf counts at the actual frequency while not halted. The ratio
	// APERF/MPERF yields the achieved frequency used in Figure 6.
	IA32APerf uint32 = 0x0E8
	// MSRPlatformInfo reports the base (non-turbo) ratio in bits 15:8.
	MSRPlatformInfo uint32 = 0x0CE
	// IA32PerfStatus reports the current P-state ratio in bits 15:8.
	IA32PerfStatus uint32 = 0x198
	// IA32PerfCtl requests a P-state ratio in bits 15:8.
	IA32PerfCtl uint32 = 0x199
	// MSRRaplPowerUnit encodes the RAPL power (bits 3:0), energy (bits
	// 12:8), and time (bits 19:16) unit divisors.
	MSRRaplPowerUnit uint32 = 0x606
	// MSRPkgPowerLimit holds the PL1/PL2 package power limits.
	MSRPkgPowerLimit uint32 = 0x610
	// MSRPkgEnergyStatus is the 32-bit wrapping package energy accumulator.
	MSRPkgEnergyStatus uint32 = 0x611
	// MSRPkgPowerInfo reports TDP (bits 14:0), min power (30:16) and max
	// power (46:32) in RAPL power units.
	MSRPkgPowerInfo uint32 = 0x614
	// MSRDramEnergyStatus is the DRAM-domain energy accumulator.
	MSRDramEnergyStatus uint32 = 0x619
)

// Access describes the allowlisted access for one register, in the style of
// an msr-safe allowlist entry: a register is readable if present, and
// writable only in the bits set in WriteMask.
type Access struct {
	// WriteMask has a 1 for every writable bit. A zero mask means the
	// register is read-only from the unprivileged interface.
	WriteMask uint64
}

// DefaultAllowlist returns the allowlist the stack ships with, covering the
// registers GEOPM needs for power management on this platform. It mirrors
// the msr-safe allowlist entries for RAPL and P-state control.
func DefaultAllowlist() map[uint32]Access {
	return map[uint32]Access{
		IA32TimeStampCounter: {},
		IA32MPerf:            {},
		IA32APerf:            {},
		MSRPlatformInfo:      {},
		IA32PerfStatus:       {},
		IA32PerfCtl:          {WriteMask: 0xFF00},
		MSRRaplPowerUnit:     {},
		// PL1 and PL2 fields: power limit, enable, clamp, time window.
		MSRPkgPowerLimit:    {WriteMask: 0x00FFFFFF00FFFFFF},
		MSRPkgEnergyStatus:  {},
		MSRPkgPowerInfo:     {},
		MSRDramEnergyStatus: {},
	}
}

// Error codes mirror the errno-style failures of the msr-safe character
// device.
type Error struct {
	Op       string
	Register uint32
	Reason   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("msr: %s 0x%03X: %s", e.Op, e.Register, e.Reason)
}

// Op names one unprivileged access direction for fault arming.
type Op string

// The two unprivileged access directions.
const (
	OpRead  Op = "read"
	OpWrite Op = "write"
)

// opReg addresses one (direction, register) fault slot.
type opReg struct {
	op  Op
	reg uint32
}

// layout is the immutable dense index of a register file: the allowlist's
// addresses in sorted order, the address→slot index, and the per-slot access
// rights. Devices cloned or restored from each other share one layout
// pointer, so a clone is a slice copy and a whole pool's register words can
// live side by side in one flat backing array (cluster.PoolState).
type layout struct {
	addrs []uint32
	acc   []Access
	// low holds slot+1 for every allowlisted address below lowAddrs, indexed
	// by address (0 marks an address off the list); it covers every
	// register this stack defines, so the hot accesses never hash. high
	// holds the slots of allowlist entries at or above lowAddrs.
	low  []uint16
	high map[uint32]int
}

// lowAddrs bounds the addresses layout.low indexes directly. Sorted
// addresses below it take the first slots, so every low slot+1 fits the
// table's uint16 entries.
const lowAddrs = 0x1000

// newLayout builds the dense index of an allowlist.
func newLayout(allowlist map[uint32]Access) *layout {
	addrs := make([]uint32, 0, len(allowlist))
	for addr := range allowlist {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	l := &layout{addrs: addrs, acc: make([]Access, len(addrs))}
	for i, addr := range addrs {
		l.acc[i] = allowlist[addr]
		if addr < lowAddrs {
			if int(addr) >= len(l.low) {
				l.low = append(l.low, make([]uint16, int(addr)+1-len(l.low))...)
			}
			l.low[addr] = uint16(i + 1)
			continue
		}
		if l.high == nil {
			l.high = map[uint32]int{}
		}
		l.high[addr] = i
	}
	return l
}

// find returns reg's dense slot and whether reg is on the allowlist.
func (l *layout) find(reg uint32) (int, bool) {
	if reg < lowAddrs {
		if reg >= uint32(len(l.low)) {
			return 0, false
		}
		s := int(l.low[reg]) - 1
		return s, s >= 0
	}
	s, ok := l.high[reg]
	return s, ok
}

// defaultLayout is the shared dense index of DefaultAllowlist: every device
// built with a nil allowlist — the whole simulated machine room — indexes
// its register words through this one structure.
var defaultLayout = newLayout(DefaultAllowlist())

// Device is one simulated per-socket MSR file (e.g. /dev/cpu/N/msr_safe).
// It is not locked: one goroutine owns a device at a time and hands it on
// through a happens-before edge (a channel, a mutex, or a fork-join
// barrier), exactly as the node.Node and rapl.Domain that hold it require.
// Concurrent reads of a device nobody is mutating — CloneOnto and
// SnapshotWords on a template pool — are safe.
//
// Register words live in a dense slice indexed through the shared layout
// (struct-of-arrays friendly: cloning is one slice copy, and a pool of
// devices can view disjoint windows of one flat backing array). Privileged
// writes to addresses outside the allowlist spill into a small side map so
// the historical "any address" privileged semantics survive the dense
// storage.
type Device struct {
	lay    *layout
	regs   []uint64
	extra  map[uint32]uint64
	faults map[uint32]error
	armed  map[opReg]*countdownFault
}

// countdownFault is a countdown fault: the next remaining unprivileged
// accesses in its direction succeed, then every later access fails with err.
type countdownFault struct {
	remaining int
	err       error
}

// NewDevice creates a device with the given allowlist. A nil allowlist uses
// DefaultAllowlist. All allowlisted registers exist with value zero.
func NewDevice(allowlist map[uint32]Access) *Device {
	lay := defaultLayout
	if allowlist != nil {
		lay = newLayout(allowlist)
	}
	return &Device{lay: lay, regs: make([]uint64, len(lay.addrs))}
}

// WordCount is the number of dense register words the device stores — the
// per-device stride of a flat pool backing array.
func (d *Device) WordCount() int { return len(d.lay.addrs) }

// CloneOnto returns an independent copy of the device whose register words
// live in the caller-provided backing slice, which must be exactly
// WordCount long (it panics otherwise). The current register contents are
// copied into the backing; privileged side registers, sticky faults, and
// armed countdown faults (with their remaining budgets) are duplicated, so
// accesses to the copy never affect the original. The immutable layout
// (allowlist index) is shared. This is how cluster.ClonePool lays a whole
// pool's registers out in one flat array while every Device keeps its own
// view.
func (d *Device) CloneOnto(backing []uint64) *Device {
	if len(backing) != len(d.regs) {
		panic(fmt.Sprintf("msr: backing holds %d words, device has %d", len(backing), len(d.regs)))
	}
	copy(backing, d.regs)
	c := &Device{lay: d.lay, regs: backing}
	c.RestoreAuxFrom(d)
	return c
}

// SnapshotWords appends the device's dense register words to dst and
// returns the extended slice: an image of the allowlisted registers that
// compares devices word for word.
func (d *Device) SnapshotWords(dst []uint64) []uint64 {
	return append(dst, d.regs...)
}

// Read returns the value of the register, failing for registers that are not
// on the allowlist.
func (d *Device) Read(reg uint32) (uint64, error) {
	if err := d.injected(OpRead, reg); err != nil {
		return 0, err
	}
	i, ok := d.lay.find(reg)
	if !ok {
		return 0, &Error{Op: "read", Register: reg, Reason: "not in allowlist"}
	}
	return d.regs[i], nil
}

// injected returns the injected fault an unprivileged (op, reg) access
// hits: a sticky SetFault error first, else the armed countdown's, which
// this access advances until its budget of healthy accesses is spent. A
// device with no fault of either kind — every device outside a chaos run —
// skips both map lookups.
func (d *Device) injected(op Op, reg uint32) error {
	if !d.Faulty() {
		return nil
	}
	if err := d.faults[reg]; err != nil {
		return err
	}
	cf, ok := d.armed[opReg{op, reg}]
	if !ok {
		return nil
	}
	if cf.remaining <= 0 {
		return cf.err
	}
	cf.remaining--
	return nil
}

// Write stores value into the writable bits of the register. Bits outside
// the register's write mask are preserved, matching msr-safe's write-mask
// semantics. Writing a register with a zero write mask fails.
func (d *Device) Write(reg uint32, value uint64) error {
	if err := d.injected(OpWrite, reg); err != nil {
		return err
	}
	i, ok := d.lay.find(reg)
	if !ok {
		return &Error{Op: "write", Register: reg, Reason: "not in allowlist"}
	}
	mask := d.lay.acc[i].WriteMask
	if mask == 0 {
		return &Error{Op: "write", Register: reg, Reason: "read-only"}
	}
	d.regs[i] = (d.regs[i] &^ mask) | (value & mask)
	return nil
}

// ReadField extracts the bit field [lo, hi] (inclusive, hi >= lo) from the
// register.
func (d *Device) ReadField(reg uint32, hi, lo uint) (uint64, error) {
	v, err := d.Read(reg)
	if err != nil {
		return 0, err
	}
	return ExtractBits(v, hi, lo), nil
}

// PrivilegedWrite bypasses the allowlist; it is how the simulator's hardware
// model updates counters (energy, APERF/MPERF, TSC) behind the register
// file, playing the role of the silicon itself. Addresses outside the
// allowlist land in the privileged side map.
func (d *Device) PrivilegedWrite(reg uint32, value uint64) {
	if i, ok := d.lay.find(reg); ok {
		d.regs[i] = value
		return
	}
	if d.extra == nil {
		d.extra = map[uint32]uint64{}
	}
	d.extra[reg] = value
}

// PrivilegedRead bypasses the allowlist.
func (d *Device) PrivilegedRead(reg uint32) uint64 {
	if i, ok := d.lay.find(reg); ok {
		return d.regs[i]
	}
	return d.extra[reg]
}

// PrivilegedAdd adds delta to a register with wraparound at the given bit
// width, which is how the energy accumulators advance (32-bit wrap) and the
// APERF/MPERF counters advance (64-bit wrap).
func (d *Device) PrivilegedAdd(reg uint32, delta uint64, widthBits uint) {
	add := [1]CounterAdd{{Reg: reg, Delta: delta, Width: widthBits}}
	d.PrivilegedAddBatch(add[:])
}

// CounterAdd is one wrapping counter advance for PrivilegedAddBatch.
type CounterAdd struct {
	Reg   uint32
	Delta uint64
	Width uint
}

// PrivilegedAddBatch applies a series of counter advances in one call — the
// hot path for iteration crediting, which bumps five counters per socket per
// credit. Each add is identical to a PrivilegedAdd(Reg, Delta, Width) call,
// in order.
func (d *Device) PrivilegedAddBatch(adds []CounterAdd) {
	for _, a := range adds {
		var v uint64
		i, ok := d.lay.find(a.Reg)
		if ok {
			v = d.regs[i] + a.Delta
		} else {
			v = d.extra[a.Reg] + a.Delta
		}
		if a.Width < 64 {
			v &= (uint64(1) << a.Width) - 1
		}
		if ok {
			d.regs[i] = v
			continue
		}
		if d.extra == nil {
			d.extra = map[uint32]uint64{}
		}
		d.extra[a.Reg] = v
	}
}

// Registers returns a snapshot of all register addresses (allowlisted words
// in ascending order, then any privileged side-map registers), for
// diagnostics.
func (d *Device) Registers() []uint32 {
	out := make([]uint32, 0, len(d.regs)+len(d.extra))
	out = append(out, d.lay.addrs...)
	for addr := range d.extra {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetFault arranges for unprivileged Read and Write on the register to
// fail with err until cleared with a nil err — modeling flaky msr-safe
// access (module reload, revoked permissions, surprise ejection) for
// failure-injection tests. Privileged accesses (the silicon itself) are
// unaffected.
func (d *Device) SetFault(reg uint32, err error) {
	if d.faults == nil {
		d.faults = map[uint32]error{}
	}
	if err == nil {
		delete(d.faults, reg)
		return
	}
	d.faults[reg] = err
}

// ArmFault arms a countdown fault on (op, reg): the next after unprivileged
// accesses in that direction succeed, then every later one fails with err. A
// nil err disarms the slot. It complements SetFault for failure windows that
// open mid-run — e.g. a limit programmed successfully at cell start but
// failing at release time, or an energy counter that stops answering after
// the first few samples. The opposite direction and privileged accesses are
// unaffected. It generalizes the former SetWriteFaultAfter hook, which only
// covered writes; the fault package's plans are the usual way to arm it.
func (d *Device) ArmFault(op Op, reg uint32, after int, err error) {
	if err == nil {
		delete(d.armed, opReg{op, reg})
		return
	}
	if d.armed == nil {
		d.armed = map[opReg]*countdownFault{}
	}
	d.armed[opReg{op, reg}] = &countdownFault{remaining: after, err: err}
}

// Faulty reports whether the device holds any sticky or armed injected
// fault, fired or not.
func (d *Device) Faulty() bool { return len(d.faults) > 0 || len(d.armed) > 0 }

// RestoreAuxFrom copies the device state that lives outside the dense
// register words — privileged side-map registers, sticky faults, and armed
// countdown faults (with their remaining budgets at the moment of the
// call) — from src. The register words themselves are restored by the
// owner of the backing array: cluster.PoolState copies a whole pool's
// words back with one slice copy.
func (d *Device) RestoreAuxFrom(src *Device) {
	clear(d.extra)
	if len(src.extra) > 0 {
		if d.extra == nil {
			d.extra = make(map[uint32]uint64, len(src.extra))
		}
		for addr, v := range src.extra {
			d.extra[addr] = v
		}
	}
	clear(d.faults)
	if len(src.faults) > 0 {
		if d.faults == nil {
			d.faults = make(map[uint32]error, len(src.faults))
		}
		for addr, err := range src.faults {
			d.faults[addr] = err
		}
	}
	clear(d.armed)
	if len(src.armed) > 0 {
		if d.armed == nil {
			d.armed = make(map[opReg]*countdownFault, len(src.armed))
		}
		for key, cf := range src.armed {
			d.armed[key] = &countdownFault{remaining: cf.remaining, err: cf.err}
		}
	}
}

// ExtractBits returns bits [lo, hi] (inclusive) of v, shifted down.
func ExtractBits(v uint64, hi, lo uint) uint64 {
	if hi < lo || hi > 63 {
		return 0
	}
	width := hi - lo + 1
	if width == 64 {
		return v >> lo
	}
	return (v >> lo) & ((uint64(1) << width) - 1)
}

// InsertBits returns v with bits [lo, hi] (inclusive) replaced by the low
// bits of field.
func InsertBits(v uint64, hi, lo uint, field uint64) uint64 {
	if hi < lo || hi > 63 {
		return v
	}
	width := hi - lo + 1
	var mask uint64
	if width == 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1)<<width - 1) << lo
	}
	return (v &^ mask) | ((field << lo) & mask)
}

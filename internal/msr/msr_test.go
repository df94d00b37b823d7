package msr

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadUnknownRegister(t *testing.T) {
	d := NewDevice(nil)
	_, err := d.Read(0xDEAD)
	var merr *Error
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if merr.Op != "read" || merr.Register != 0xDEAD {
		t.Errorf("error fields = %+v", merr)
	}
}

func TestWriteReadOnlyRegister(t *testing.T) {
	d := NewDevice(nil)
	if err := d.Write(MSRPkgEnergyStatus, 42); err == nil {
		t.Fatal("expected error writing read-only register")
	}
	if err := d.Write(0xBEEF, 1); err == nil {
		t.Fatal("expected error writing unlisted register")
	}
}

func TestWriteMaskPreservesBits(t *testing.T) {
	d := NewDevice(nil)
	// Seed bits outside the writable window via the privileged path.
	d.PrivilegedWrite(IA32PerfCtl, 0xFFFF_0000_0000_00FF)
	if err := d.Write(IA32PerfCtl, 0x1500); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(IA32PerfCtl)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0xFFFF_0000_0000_15FF)
	if got != want {
		t.Errorf("register = %#x, want %#x", got, want)
	}
}

func TestPkgPowerLimitWritable(t *testing.T) {
	d := NewDevice(nil)
	if err := d.Write(MSRPkgPowerLimit, 0x0042_83E8); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Read(MSRPkgPowerLimit)
	if got != 0x0042_83E8 {
		t.Errorf("PL = %#x", got)
	}
}

func TestPrivilegedBypassesAllowlist(t *testing.T) {
	d := NewDevice(nil)
	d.PrivilegedWrite(MSRPkgEnergyStatus, 12345)
	if got := d.PrivilegedRead(MSRPkgEnergyStatus); got != 12345 {
		t.Errorf("privileged read = %d", got)
	}
	v, err := d.Read(MSRPkgEnergyStatus)
	if err != nil || v != 12345 {
		t.Errorf("read = %d, %v", v, err)
	}
}

func TestPrivilegedAddWraps32(t *testing.T) {
	d := NewDevice(nil)
	d.PrivilegedWrite(MSRPkgEnergyStatus, 0xFFFF_FFFE)
	d.PrivilegedAdd(MSRPkgEnergyStatus, 5, 32)
	if got := d.PrivilegedRead(MSRPkgEnergyStatus); got != 3 {
		t.Errorf("after wrap = %d, want 3", got)
	}
}

// TestPrivilegedAddBatchEquivalent pins the batched advance identical to
// the same adds issued one call at a time, including 32-bit wraparound,
// unlisted (side-map) registers, and application order.
func TestPrivilegedAddBatchEquivalent(t *testing.T) {
	const sideReg uint32 = 0xC0DE
	adds := []CounterAdd{
		{Reg: MSRPkgEnergyStatus, Delta: 7, Width: 32},
		{Reg: MSRDramEnergyStatus, Delta: 0xFFFF_FFF0, Width: 32},
		{Reg: IA32APerf, Delta: 123456, Width: 64},
		{Reg: MSRPkgEnergyStatus, Delta: 0xFFFF_FFFE, Width: 32}, // wraps
		{Reg: sideReg, Delta: 99, Width: 64},
	}
	one, batch := NewDevice(nil), NewDevice(nil)
	for _, d := range []*Device{one, batch} {
		d.PrivilegedWrite(MSRPkgEnergyStatus, 0xFFFF_FFF0)
		d.PrivilegedWrite(MSRDramEnergyStatus, 0x20)
	}
	for _, a := range adds {
		one.PrivilegedAdd(a.Reg, a.Delta, a.Width)
	}
	batch.PrivilegedAddBatch(adds)
	for _, reg := range []uint32{MSRPkgEnergyStatus, MSRDramEnergyStatus, IA32APerf, sideReg} {
		if g, w := batch.PrivilegedRead(reg), one.PrivilegedRead(reg); g != w {
			t.Errorf("reg %#x: batch = %d, individual = %d", reg, g, w)
		}
	}
}

func TestPrivilegedAdd64(t *testing.T) {
	d := NewDevice(nil)
	d.PrivilegedWrite(IA32APerf, ^uint64(0))
	d.PrivilegedAdd(IA32APerf, 2, 64)
	if got := d.PrivilegedRead(IA32APerf); got != 1 {
		t.Errorf("after 64-bit wrap = %d, want 1", got)
	}
}

func TestReadField(t *testing.T) {
	d := NewDevice(nil)
	d.PrivilegedWrite(MSRPlatformInfo, 0x1500) // base ratio 0x15 = 21
	ratio, err := d.ReadField(MSRPlatformInfo, 15, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 21 {
		t.Errorf("base ratio = %d, want 21", ratio)
	}
	if _, err := d.ReadField(0xDEAD, 7, 0); err == nil {
		t.Error("expected allowlist error")
	}
}

func TestRegistersSnapshot(t *testing.T) {
	d := NewDevice(nil)
	regs := d.Registers()
	if len(regs) != len(DefaultAllowlist()) {
		t.Errorf("register count = %d, want %d", len(regs), len(DefaultAllowlist()))
	}
}

func TestCustomAllowlist(t *testing.T) {
	d := NewDevice(map[uint32]Access{0x42: {WriteMask: 0xF}})
	if err := d.Write(0x42, 0xFF); err != nil {
		t.Fatal(err)
	}
	v, _ := d.Read(0x42)
	if v != 0xF {
		t.Errorf("masked write = %#x, want 0xF", v)
	}
	if _, err := d.Read(MSRPkgEnergyStatus); err == nil {
		t.Error("default registers should not exist with custom allowlist")
	}
}

// TestAllowlistAddressRanges pins the register lookup on both sides of the
// direct-indexed range: allowlisted addresses below and above 0x1000 read
// and write through their own words, and unlisted neighbours of either kind
// fail the unprivileged interface and fall into the privileged side map.
func TestAllowlistAddressRanges(t *testing.T) {
	listed := []uint32{0x0, 0x10, 0xFFF, 0x1000, 0x1234, 0xC000_0100}
	allow := map[uint32]Access{}
	for _, reg := range listed {
		allow[reg] = Access{WriteMask: ^uint64(0)}
	}
	d := NewDevice(allow)
	for i, reg := range listed {
		if err := d.Write(reg, uint64(i+1)); err != nil {
			t.Fatalf("write %#x: %v", reg, err)
		}
	}
	for i, reg := range listed {
		if v, err := d.Read(reg); err != nil || v != uint64(i+1) {
			t.Errorf("read %#x = %d, %v; want %d", reg, v, err, i+1)
		}
	}
	for _, reg := range []uint32{0x1, 0x11, 0x611, 0xFFE, 0x1001, 0x1235, 0xFFFF_FFFF} {
		if _, err := d.Read(reg); err == nil {
			t.Errorf("read %#x: unlisted register readable", reg)
		}
		d.PrivilegedAdd(reg, 5, 64)
		if got := d.PrivilegedRead(reg); got != 5 {
			t.Errorf("privileged %#x = %d, want 5", reg, got)
		}
	}
	if got := len(d.Registers()); got != len(listed)+7 {
		t.Errorf("registers = %d, want %d listed + 7 side", got, len(listed))
	}
}

// BenchmarkDeviceRead is the zero-alloc gate on an allowlisted register
// read, the telemetry sample's per-socket energy access.
func BenchmarkDeviceRead(b *testing.B) {
	d := NewDevice(nil)
	d.PrivilegedWrite(MSRPkgEnergyStatus, 42)
	b.ReportAllocs()
	var sum uint64
	for b.Loop() {
		v, err := d.Read(MSRPkgEnergyStatus)
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	_ = sum
}

// BenchmarkPrivilegedAddBatch is the zero-alloc gate on one socket's
// steady-state credit: the five counter advances node.CreditIterations
// applies per socket.
func BenchmarkPrivilegedAddBatch(b *testing.B) {
	d := NewDevice(nil)
	adds := [5]CounterAdd{
		{Reg: MSRPkgEnergyStatus, Delta: 1 << 20, Width: 32},
		{Reg: MSRDramEnergyStatus, Delta: 1 << 16, Width: 32},
		{Reg: IA32APerf, Delta: 1 << 30, Width: 64},
		{Reg: IA32MPerf, Delta: 1 << 30, Width: 64},
		{Reg: IA32TimeStampCounter, Delta: 1 << 30, Width: 64},
	}
	b.ReportAllocs()
	for b.Loop() {
		d.PrivilegedAddBatch(adds[:])
	}
}

func TestExtractBits(t *testing.T) {
	cases := []struct {
		v      uint64
		hi, lo uint
		want   uint64
	}{
		{0xABCD, 15, 8, 0xAB},
		{0xABCD, 7, 0, 0xCD},
		{0xABCD, 3, 4, 0},  // hi < lo
		{0xABCD, 64, 0, 0}, // hi out of range
		{^uint64(0), 63, 0, ^uint64(0)},
		{0x8000_0000_0000_0000, 63, 63, 1},
	}
	for _, c := range cases {
		if got := ExtractBits(c.v, c.hi, c.lo); got != c.want {
			t.Errorf("ExtractBits(%#x,%d,%d) = %#x, want %#x", c.v, c.hi, c.lo, got, c.want)
		}
	}
}

func TestInsertBits(t *testing.T) {
	cases := []struct {
		v      uint64
		hi, lo uint
		field  uint64
		want   uint64
	}{
		{0, 15, 8, 0x7F, 0x7F00},
		{0xFFFF, 15, 8, 0, 0x00FF},
		{0xFFFF, 3, 4, 0, 0xFFFF},       // hi < lo: unchanged
		{0x1234, 64, 0, 0xFFFF, 0x1234}, // out of range: unchanged
		{0, 63, 0, ^uint64(0), ^uint64(0)},
	}
	for _, c := range cases {
		if got := InsertBits(c.v, c.hi, c.lo, c.field); got != c.want {
			t.Errorf("InsertBits(%#x,%d,%d,%#x) = %#x, want %#x", c.v, c.hi, c.lo, c.field, got, c.want)
		}
	}
}

// Property: Extract(Insert(v, field)) == field truncated to the width.
func TestInsertExtractRoundTrip(t *testing.T) {
	f := func(v, field uint64, hiRaw, loRaw uint8) bool {
		hi := uint(hiRaw) % 64
		lo := uint(loRaw) % 64
		if hi < lo {
			hi, lo = lo, hi
		}
		width := hi - lo + 1
		inserted := InsertBits(v, hi, lo, field)
		got := ExtractBits(inserted, hi, lo)
		var want uint64
		if width == 64 {
			want = field
		} else {
			want = field & ((uint64(1) << width) - 1)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: InsertBits never disturbs bits outside [lo, hi].
func TestInsertBitsPreservesOutside(t *testing.T) {
	f := func(v, field uint64, hiRaw, loRaw uint8) bool {
		hi := uint(hiRaw) % 64
		lo := uint(loRaw) % 64
		if hi < lo {
			hi, lo = lo, hi
		}
		width := hi - lo + 1
		var mask uint64
		if width == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1)<<width - 1) << lo
		}
		inserted := InsertBits(v, hi, lo, field)
		return inserted&^mask == v&^mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeviceOwnershipHandoff pins the single-owner contract under -race:
// eight goroutines pass one device around a channel ring, each taking 125
// turns of eight PrivilegedAdd/Read pairs while it holds the device, and
// every add lands. Separately, several goroutines clone and snapshot one
// quiescent source at once — the cluster.ClonePool pattern — and each
// copy sees the source's words.
func TestDeviceOwnershipHandoff(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		const owners, turns, perTurn = 8, 125, 8
		d := NewDevice(nil)
		ring := make([]chan *Device, owners)
		for i := range ring {
			ring[i] = make(chan *Device, 1)
		}
		var wg sync.WaitGroup
		for i := 0; i < owners; i++ {
			wg.Add(1)
			go func(in, out chan *Device) {
				defer wg.Done()
				for turn := 0; turn < turns; turn++ {
					dev := <-in
					for j := 0; j < perTurn; j++ {
						dev.PrivilegedAdd(MSRPkgEnergyStatus, 1, 32)
						if _, err := dev.Read(MSRPkgEnergyStatus); err != nil {
							t.Error(err)
						}
					}
					out <- dev
				}
			}(ring[i], ring[(i+1)%owners])
		}
		ring[0] <- d
		wg.Wait()
		d = <-ring[0]
		if got := d.PrivilegedRead(MSRPkgEnergyStatus); got != owners*turns*perTurn {
			t.Errorf("counter = %d, want %d", got, owners*turns*perTurn)
		}
	})
	t.Run("quiescent source", func(t *testing.T) {
		src := NewDevice(nil)
		src.PrivilegedWrite(MSRPkgEnergyStatus, 77)
		src.PrivilegedWrite(0xC0DE, 5)
		src.ArmFault(OpWrite, MSRPkgPowerLimit, 1, errors.New("boom"))
		want := src.SnapshotWords(nil)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := src.CloneOnto(make([]uint64, src.WordCount()))
				got := src.SnapshotWords(nil)
				c.PrivilegedAdd(MSRPkgEnergyStatus, 1, 32)
				if err := c.Write(MSRPkgPowerLimit, 1); err != nil {
					t.Errorf("clone write within countdown: %v", err)
				}
				if v := c.PrivilegedRead(MSRPkgEnergyStatus); v != 78 {
					t.Errorf("clone energy = %d, want 78", v)
				}
				if v := c.PrivilegedRead(0xC0DE); v != 5 {
					t.Errorf("clone side register = %d, want 5", v)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Errorf("snapshot word %d = %d, want %d", k, got[k], want[k])
					}
				}
			}()
		}
		wg.Wait()
		if err := src.Write(MSRPkgPowerLimit, 1); err != nil {
			t.Errorf("source countdown consumed by its clones: %v", err)
		}
	})
}

func TestCloneIndependence(t *testing.T) {
	d := NewDevice(nil)
	if err := d.Write(MSRPkgPowerLimit, 0x0042_83E8); err != nil {
		t.Fatal(err)
	}
	c := d.CloneOnto(make([]uint64, d.WordCount()))
	got, err := c.Read(MSRPkgPowerLimit)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x0042_83E8 {
		t.Errorf("clone PL = %#x, want original value", got)
	}
	// Writes to either side must not leak to the other.
	if err := c.Write(MSRPkgPowerLimit, 0x0011_1111); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Read(MSRPkgPowerLimit); got != 0x0042_83E8 {
		t.Errorf("original PL = %#x after clone write", got)
	}
	d.PrivilegedAdd(MSRPkgEnergyStatus, 99, 32)
	if got := c.PrivilegedRead(MSRPkgEnergyStatus); got != 0 {
		t.Errorf("clone energy = %d after original write", got)
	}
}

func TestCloneCopiesFaults(t *testing.T) {
	d := NewDevice(nil)
	boom := errors.New("boom")
	d.SetFault(MSRPkgEnergyStatus, boom)
	c := d.CloneOnto(make([]uint64, d.WordCount()))
	if _, err := c.Read(MSRPkgEnergyStatus); !errors.Is(err, boom) {
		t.Errorf("clone read err = %v, want injected fault", err)
	}
	// Clearing the fault on the clone must not clear the original.
	c.SetFault(MSRPkgEnergyStatus, nil)
	if _, err := c.Read(MSRPkgEnergyStatus); err != nil {
		t.Errorf("clone after clear: %v", err)
	}
	if _, err := d.Read(MSRPkgEnergyStatus); !errors.Is(err, boom) {
		t.Errorf("original read err = %v, want injected fault", err)
	}
}

func TestArmFaultWriteCountdown(t *testing.T) {
	d := NewDevice(nil)
	boom := errors.New("boom")
	d.ArmFault(OpWrite, MSRPkgPowerLimit, 2, boom)
	// The first two writes pass, then the register fails persistently.
	for i := 0; i < 2; i++ {
		if err := d.Write(MSRPkgPowerLimit, uint64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := d.Write(MSRPkgPowerLimit, 7); !errors.Is(err, boom) {
		t.Fatalf("third write err = %v, want injected fault", err)
	}
	if err := d.Write(MSRPkgPowerLimit, 8); !errors.Is(err, boom) {
		t.Fatalf("fourth write err = %v, want fault to persist", err)
	}
	// Reads never trip a write fault.
	if _, err := d.Read(MSRPkgPowerLimit); err != nil {
		t.Fatalf("read: %v", err)
	}
	// A nil error disarms the countdown.
	d.ArmFault(OpWrite, MSRPkgPowerLimit, 0, nil)
	if err := d.Write(MSRPkgPowerLimit, 9); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestArmFaultReadCountdown(t *testing.T) {
	d := NewDevice(nil)
	boom := errors.New("boom")
	d.ArmFault(OpRead, MSRPkgEnergyStatus, 1, boom)
	if _, err := d.Read(MSRPkgEnergyStatus); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := d.Read(MSRPkgEnergyStatus); !errors.Is(err, boom) {
		t.Fatalf("second read err = %v, want injected fault", err)
	}
	// Writes never trip a read fault; the register is read-only, so use the
	// writable PL1 register armed only for reads.
	d.ArmFault(OpRead, MSRPkgPowerLimit, 0, boom)
	if err := d.Write(MSRPkgPowerLimit, 3); err != nil {
		t.Fatalf("write with read fault armed: %v", err)
	}
	if _, err := d.Read(MSRPkgPowerLimit); !errors.Is(err, boom) {
		t.Fatalf("read err = %v, want injected fault", err)
	}
}

func TestCloneCopiesWriteFaultCountdown(t *testing.T) {
	d := NewDevice(nil)
	boom := errors.New("boom")
	d.ArmFault(OpWrite, MSRPkgPowerLimit, 1, boom)
	c := d.CloneOnto(make([]uint64, d.WordCount()))
	// Each device has its own countdown budget.
	if err := c.Write(MSRPkgPowerLimit, 1); err != nil {
		t.Fatalf("clone first write: %v", err)
	}
	if err := c.Write(MSRPkgPowerLimit, 2); !errors.Is(err, boom) {
		t.Fatalf("clone second write err = %v, want injected fault", err)
	}
	if err := d.Write(MSRPkgPowerLimit, 1); err != nil {
		t.Fatalf("original first write: %v", err)
	}
	if err := d.Write(MSRPkgPowerLimit, 2); !errors.Is(err, boom) {
		t.Fatalf("original second write err = %v, want injected fault", err)
	}
}

// TestFaultyTracksStickyAndArmedFaults pins Faulty: a sticky or an armed
// fault makes the device faulty, fired or not, and clearing or disarming it
// makes it healthy again.
func TestFaultyTracksStickyAndArmedFaults(t *testing.T) {
	d := NewDevice(nil)
	if d.Faulty() {
		t.Fatal("fresh device reports a fault")
	}
	d.SetFault(MSRPkgPowerLimit, errors.New("sticky"))
	if !d.Faulty() {
		t.Error("sticky fault not reported")
	}
	d.SetFault(MSRPkgPowerLimit, nil)
	if d.Faulty() {
		t.Error("cleared sticky fault still reported")
	}
	d.ArmFault(OpWrite, MSRPkgPowerLimit, 0, errors.New("armed"))
	if err := d.Write(MSRPkgPowerLimit, 1); err == nil || !d.Faulty() {
		t.Errorf("fired armed fault: write err %v, Faulty %v", err, d.Faulty())
	}
	d.ArmFault(OpWrite, MSRPkgPowerLimit, 0, nil)
	if d.Faulty() {
		t.Error("disarmed fault still reported")
	}
}

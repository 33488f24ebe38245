package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bees/internal/features"
	"bees/internal/imagelib"
)

// Capacity returns the battery capacity in Joules.
func (b *Battery) Capacity() float64 { return b.capacityJ }

// Remaining returns the remaining energy in Joules.
func (b *Battery) Remaining() float64 { return b.remainingJ }

func TestDefaultModelOrdering(t *testing.T) {
	m := DefaultModel()
	// ORB must be roughly two orders of magnitude cheaper than SIFT, and
	// PCA-SIFT slightly more expensive than SIFT (Section III-D).
	if ratio := m.SIFTExtractJ / m.ORBExtractJ; ratio < 30 || ratio > 300 {
		t.Fatalf("SIFT/ORB cost ratio = %v, want ~two orders", ratio)
	}
	if m.PCASIFTExtractJ <= m.SIFTExtractJ {
		t.Fatal("PCA-SIFT must cost more than SIFT")
	}
}

func TestExtractEnergyDecreasesWithCompression(t *testing.T) {
	m := DefaultModel()
	prev := math.Inf(1)
	for c := 0.0; c <= 0.9; c += 0.05 {
		e := m.ExtractEnergy(features.AlgORB, c)
		if e >= prev {
			t.Fatalf("extraction energy not decreasing at c=%v: %v >= %v", c, e, prev)
		}
		prev = e
	}
}

func TestExtractEnergyNearLinear(t *testing.T) {
	// Fig. 3(b): the relationship is approximately linear. Check the
	// deviation from the straight line between c=0 and c=0.9 stays small.
	m := DefaultModel()
	e0 := m.ExtractEnergy(features.AlgORB, 0)
	e9 := m.ExtractEnergy(features.AlgORB, 0.9)
	for c := 0.0; c <= 0.9; c += 0.1 {
		linear := e0 + (e9-e0)*c/0.9
		got := m.ExtractEnergy(features.AlgORB, c)
		if dev := math.Abs(got-linear) / e0; dev > 0.12 {
			t.Fatalf("energy deviates %.0f%% from linear at c=%v", dev*100, c)
		}
	}
}

func TestExtractEnergyClampsProportion(t *testing.T) {
	m := DefaultModel()
	if m.ExtractEnergy(features.AlgORB, -1) != m.ExtractEnergy(features.AlgORB, 0) {
		t.Fatal("negative proportion should clamp to 0")
	}
	if e := m.ExtractEnergy(features.AlgORB, 5); e <= 0 {
		t.Fatal("out-of-range proportion should still cost something")
	}
	if m.ExtractEnergy(features.Algorithm(0), 0) != 0 {
		t.Fatal("unknown algorithm should cost 0")
	}
}

func TestTxEnergyProportionalToBytes(t *testing.T) {
	m := DefaultModel()
	e1 := m.TxEnergy(1000, 256000)
	e2 := m.TxEnergy(2000, 256000)
	if math.Abs(e2-2*e1) > 1e-9 {
		t.Fatalf("TxEnergy not linear in bytes: %v, %v", e1, e2)
	}
}

func TestTxEnergyInverseToBitrate(t *testing.T) {
	m := DefaultModel()
	slow := m.TxEnergy(100000, 128000)
	fast := m.TxEnergy(100000, 512000)
	if math.Abs(slow-4*fast) > 1e-9 {
		t.Fatalf("TxEnergy not inverse in bitrate: %v vs %v", slow, fast)
	}
}

func TestTxEnergyAnchor(t *testing.T) {
	// A nominal 700 KB image at 256 Kbps: airtime 22.4 s, 1.8 W → ~40 J.
	m := DefaultModel()
	got := m.TxEnergy(imagelib.NominalBytes, 256000)
	if got < 35 || got < 0 || got > 45 {
		t.Fatalf("full-image upload energy = %v J, want ~40 J", got)
	}
}

func TestTxTimeAnchor(t *testing.T) {
	got := airtime(imagelib.NominalBytes, 256000)
	want := float64(imagelib.NominalBytes) * 8 / 256000
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("airtime = %vs, want %.1fs", got, want)
	}
}

func TestAirtimeEdgeCases(t *testing.T) {
	if airtime(0, 256000) != 0 || airtime(-5, 256000) != 0 {
		t.Fatal("non-positive bytes should take no airtime")
	}
	// Bitrate floor prevents division blowups on a dead link.
	if got := airtime(1000, 0); got != 8 {
		t.Fatalf("floored airtime = %v, want 8s at 1 kbps", got)
	}
}

func TestRxCheaperThanTx(t *testing.T) {
	m := DefaultModel()
	if m.RxEnergy(5000, 256000) >= m.TxEnergy(5000, 256000) {
		t.Fatal("receive should cost less than transmit")
	}
}

func TestCompressEnergyScalesWithPixels(t *testing.T) {
	m := DefaultModel()
	if m.CompressEnergy(2e6) != 2*m.CompressEnergy(1e6) {
		t.Fatal("compression energy not linear in pixels")
	}
}

func TestScreenEnergy(t *testing.T) {
	m := DefaultModel()
	got := m.ScreenEnergy(20 * time.Minute)
	want := m.ScreenPowerW * 1200
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ScreenEnergy = %v, want %v", got, want)
	}
}

func TestBatteryCapacityAnchor(t *testing.T) {
	b := NewDefaultBattery()
	if math.Abs(b.Capacity()-43092) > 1 {
		t.Fatalf("default capacity = %v J, want 43092", b.Capacity())
	}
	if b.Ebat() != 1 {
		t.Fatal("new battery should be full")
	}
}

func TestBatteryPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBattery(0) did not panic")
		}
	}()
	NewBattery(0)
}

func TestBatteryDrain(t *testing.T) {
	b := NewBattery(100)
	if got := b.Drain(30); got != 30 {
		t.Fatalf("Drain returned %v", got)
	}
	if b.Remaining() != 70 || math.Abs(b.Ebat()-0.7) > 1e-9 {
		t.Fatalf("after drain: remaining=%v ebat=%v", b.Remaining(), b.Ebat())
	}
	if got := b.Drain(1000); got != 70 {
		t.Fatalf("over-drain returned %v, want 70", got)
	}
	if !b.Empty() || b.Remaining() != 0 {
		t.Fatal("battery should be empty")
	}
	if b.Drain(-5) != 0 {
		t.Fatal("negative drain should be ignored")
	}
}

func TestBatteryDrainMonotoneQuick(t *testing.T) {
	f := func(amounts []float64) bool {
		b := NewBattery(1000)
		prev := b.Remaining()
		for _, a := range amounts {
			b.Drain(a)
			if b.Remaining() > prev || b.Remaining() < 0 {
				return false
			}
			prev = b.Remaining()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatterySetEbatAndReset(t *testing.T) {
	b := NewBattery(200)
	b.SetEbat(0.4)
	if math.Abs(b.Ebat()-0.4) > 1e-9 {
		t.Fatalf("SetEbat(0.4): got %v", b.Ebat())
	}
	b.SetEbat(-1)
	if b.Ebat() != 0 {
		t.Fatal("SetEbat(-1) should clamp to 0")
	}
	b.SetEbat(2)
	if b.Ebat() != 1 {
		t.Fatal("SetEbat(2) should clamp to 1")
	}
	b.Drain(50)
	b.Reset()
	if b.Ebat() != 1 {
		t.Fatal("Reset should refill")
	}
}

func TestMeterAccumulates(t *testing.T) {
	var m Meter
	m.Add(CatExtract, 5)
	m.Add(CatExtract, 3)
	m.Add(CatImageTx, 10)
	if m.Get(CatExtract) != 8 || m.Get(CatImageTx) != 10 || m.Total() != 18 {
		t.Fatalf("meter state wrong: %+v", m)
	}
}

func TestMeterIgnoresNegative(t *testing.T) {
	var m Meter
	if m.Add(CatExtract, -4) != 0 || m.Total() != 0 {
		t.Fatal("negative add should be ignored")
	}
}

func TestMeterUnknownCategory(t *testing.T) {
	var m Meter
	m.Add(Category(99), 5)
	if m.Get(Category(99)) != 0 {
		t.Fatal("unknown category Get should be 0")
	}
	if m.Total() != 5 {
		t.Fatal("unknown category should still count toward total")
	}
}

func TestMeterAddReturnsAmount(t *testing.T) {
	var m Meter
	b := NewBattery(100)
	b.Drain(m.Add(CatScreen, 25))
	if b.Remaining() != 75 || m.Get(CatScreen) != 25 {
		t.Fatal("Add/Drain chaining broken")
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Add(CatRx, 2)
	m.Reset()
	if m.Total() != 0 || m.Get(CatRx) != 0 {
		t.Fatal("Reset did not clear meter")
	}
}

// Reset refills the battery. Only tests reset a battery; the simulations
// build a fresh one per device.
func (b *Battery) Reset() { b.remainingJ = b.capacityJ }

// Reset clears the meter. Only tests reuse a meter.
func (m *Meter) Reset() { *m = Meter{} }

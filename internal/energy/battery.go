package energy

import "fmt"

// Battery is the smartphone battery. The paper's device has a 3150 mAh
// battery at 3.8 V ≈ 43.1 kJ. Ebat — the remaining-energy fraction — is
// the input every energy-aware adaptive scheme (EAC, EDR, EAU) reads.
type Battery struct {
	capacityJ  float64
	remainingJ float64
}

// DefaultCapacityJ is the paper's battery: 3150 mAh × 3.8 V × 3.6 J/mWh.
const DefaultCapacityJ = 3150 * 3.8 * 3.6

// NewBattery creates a full battery with the given capacity in Joules.
func NewBattery(capacityJ float64) *Battery {
	if capacityJ <= 0 {
		panic(fmt.Sprintf("energy: non-positive battery capacity %v", capacityJ))
	}
	return &Battery{capacityJ: capacityJ, remainingJ: capacityJ}
}

// NewDefaultBattery creates the paper's 3150 mAh / 3.8 V battery, full.
func NewDefaultBattery() *Battery { return NewBattery(DefaultCapacityJ) }

// Ebat returns the remaining-energy fraction in [0, 1].
func (b *Battery) Ebat() float64 { return b.remainingJ / b.capacityJ }

// Empty reports whether the battery is exhausted.
func (b *Battery) Empty() bool { return b.remainingJ <= 0 }

// Drain removes j Joules (floored at empty) and returns the amount
// actually drained. Negative drains are ignored.
func (b *Battery) Drain(j float64) float64 {
	if j <= 0 {
		return 0
	}
	if j > b.remainingJ {
		j = b.remainingJ
	}
	b.remainingJ -= j
	return j
}

// SetEbat forces the remaining fraction — used by experiments that sweep
// Ebat directly (Figs. 6 and 8).
func (b *Battery) SetEbat(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	b.remainingJ = frac * b.capacityJ
}

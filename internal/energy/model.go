// Package energy models the smartphone battery and the per-operation
// energy costs BEES trades off: CPU energy for feature extraction and
// compression, radio energy for uploads, and screen/idle drain. All
// experiments in the paper report relative energy, so the model is an
// analytic calibration (documented in DESIGN.md) rather than a hardware
// measurement; the constants are anchored to the paper's device (3150 mAh
// at 3.8 V) and to the published relative costs of ORB, SIFT and PCA-SIFT.
package energy

import (
	"time"

	"bees/internal/features"
)

// CostModel holds every calibration constant. A single model instance is
// shared by all schemes in an experiment so comparisons are fair.
type CostModel struct {
	// RadioTxPowerW is the radio power while transmitting.
	RadioTxPowerW float64
	// RadioRxPowerW is the radio power while receiving.
	RadioRxPowerW float64
	// CPUPowerW converts compute energy to compute time.
	CPUPowerW float64
	// ScreenPowerW is the always-on screen/idle drain used in the
	// battery-lifetime experiments ("the screen is always bright").
	ScreenPowerW float64
	// ORBExtractJ, SIFTExtractJ and PCASIFTExtractJ are the energies to
	// extract features from one full-resolution (nominal 8 MP) image.
	// ORB is roughly two orders of magnitude cheaper than SIFT (Rublee
	// et al.); PCA-SIFT costs slightly more than SIFT because it adds
	// the projection on top of the SIFT pipeline.
	ORBExtractJ     float64
	SIFTExtractJ    float64
	PCASIFTExtractJ float64
	// CompressJPerMP is the CPU energy to quality- or
	// resolution-compress one megapixel.
	CompressJPerMP float64
}

// DefaultModel returns the calibrated constants (see DESIGN.md,
// "Calibration constants").
func DefaultModel() CostModel {
	return CostModel{
		RadioTxPowerW:   1.8,
		RadioRxPowerW:   1.2,
		CPUPowerW:       2.5,
		ScreenPowerW:    0.62,
		ORBExtractJ:     0.06,
		SIFTExtractJ:    4.0,
		PCASIFTExtractJ: 4.5,
		CompressJPerMP:  0.01,
	}
}

// extractBaseJ returns the full-image extraction energy for an algorithm.
func (m CostModel) extractBaseJ(alg features.Algorithm) float64 {
	switch alg {
	case features.AlgORB:
		return m.ORBExtractJ
	case features.AlgSIFT:
		return m.SIFTExtractJ
	case features.AlgPCASIFT:
		return m.PCASIFTExtractJ
	default:
		return 0
	}
}

// ExtractEnergy returns the energy to extract features from an image
// whose in-memory bitmap has been compressed with proportion c (AFE).
// The cost is modelled as 0.35·(1−c)² + 0.65·(1−c) of the full-image
// cost: the quadratic term is the per-pixel detector work, the linear
// term the per-row and per-keypoint overhead. The combination reproduces
// the near-linear energy-vs-proportion curve of Fig. 3(b).
func (m CostModel) ExtractEnergy(alg features.Algorithm, c float64) float64 {
	if c < 0 {
		c = 0
	}
	if c > 0.99 {
		c = 0.99
	}
	s := 1 - c
	return m.extractBaseJ(alg) * (0.35*s*s + 0.65*s)
}

// TxEnergy returns the radio energy to upload the given bytes at the
// given bitrate (bits per second): power × airtime.
func (m CostModel) TxEnergy(bytes int, bitrateBps float64) float64 {
	return m.RadioTxPowerW * airtime(bytes, bitrateBps)
}

// RxEnergy returns the radio energy to receive the given bytes.
func (m CostModel) RxEnergy(bytes int, bitrateBps float64) float64 {
	return m.RadioRxPowerW * airtime(bytes, bitrateBps)
}

// CompressEnergy returns the CPU energy to compress an image of the
// given nominal pixel count.
func (m CostModel) CompressEnergy(pixels int) float64 {
	return m.CompressJPerMP * float64(pixels) / 1e6
}

// ScreenEnergy returns the screen/idle drain over a duration.
func (m CostModel) ScreenEnergy(d time.Duration) float64 {
	return m.ScreenPowerW * d.Seconds()
}

func airtime(bytes int, bitrateBps float64) float64 {
	if bytes <= 0 {
		return 0
	}
	if bitrateBps < 1000 {
		bitrateBps = 1000
	}
	return float64(bytes) * 8 / bitrateBps
}

package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// GilbertLink models the bursty connectivity of a damaged network with a
// two-state Gilbert-Elliott chain: a Good state with high bitrate and a
// Bad state (damaged infrastructure, congestion) with a much lower one.
// State transitions occur per transfer; dwell times are geometric. The
// paper shapes its WiFi to fluctuate between 0 and 512 Kbps — a uniform
// draw (NewFluctuatingLink) misses the burstiness real disaster links
// show, which this model adds for the robustness studies.
type GilbertLink struct {
	goodBps float64
	badBps  float64
	// pGoodToBad and pBadToGood are per-transfer transition
	// probabilities.
	pGoodToBad float64
	pBadToGood float64
	inBad      bool
	rng        *rand.Rand
}

// NewGilbertLink creates a bursty link. Typical disaster parameters:
// good 512 Kbps, bad 32 Kbps, pGoodToBad 0.1, pBadToGood 0.3.
func NewGilbertLink(goodBps, badBps, pGoodToBad, pBadToGood float64, seed int64) *GilbertLink {
	if goodBps <= 0 || badBps <= 0 || goodBps < badBps {
		panic(fmt.Sprintf("netsim: invalid Gilbert rates good=%v bad=%v", goodBps, badBps))
	}
	if pGoodToBad < 0 || pGoodToBad > 1 || pBadToGood <= 0 || pBadToGood > 1 {
		panic(fmt.Sprintf("netsim: invalid Gilbert probabilities %v, %v", pGoodToBad, pBadToGood))
	}
	return &GilbertLink{
		goodBps:    goodBps,
		badBps:     badBps,
		pGoodToBad: pGoodToBad,
		pBadToGood: pBadToGood,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Rate steps the chain and returns the bitrate for the next transfer.
func (g *GilbertLink) Rate() float64 {
	if g.inBad {
		if g.rng.Float64() < g.pBadToGood {
			g.inBad = false
		}
	} else {
		if g.rng.Float64() < g.pGoodToBad {
			g.inBad = true
		}
	}
	if g.inBad {
		return g.badBps
	}
	return g.goodBps
}

// MeanRate returns the stationary expected bitrate of the chain.
func (g *GilbertLink) MeanRate() float64 {
	// Stationary probability of Bad is p/(p+q) for transition
	// probabilities p (G→B) and q (B→G).
	pBad := g.pGoodToBad / (g.pGoodToBad + g.pBadToGood)
	return pBad*g.badBps + (1-pBad)*g.goodBps
}

// AsLink adapts the Gilbert chain to the Link interface used by devices:
// it returns a fluctuating Link whose Rate comes from the chain.
//
// Link is a concrete struct, so the adaptation plugs the chain in as the
// rate source.
func (g *GilbertLink) AsLink() *Link {
	return &Link{fluctuate: true, rateFn: g.Rate, meanFn: g.MeanRate}
}

// TransferTime mirrors Link.TransferTime for direct use.
func (g *GilbertLink) TransferTime(bytes int) (time.Duration, float64) {
	rate := g.Rate()
	if bytes <= 0 {
		return 0, rate
	}
	return time.Duration(float64(bytes) * 8 / rate * float64(time.Second)), rate
}

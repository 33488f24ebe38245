// Package netsim provides the virtual clock and the bandwidth-limited
// link used to emulate the paper's disaster network: the experimental
// setup shapes each phone's WiFi link to fluctuate between 0 and 512 Kbps.
// Transfers cost airtime = bytes×8/bitrate on a virtual clock, so delay
// and battery-lifetime experiments run in simulated time.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Clock is a virtual clock. The zero value starts at t=0.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward; negative advances are ignored.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// Link models a shaped uplink. A fixed link always transfers at Bitrate;
// a fluctuating link draws a rate uniformly from [Min, Max] per transfer,
// emulating the 0–512 Kbps shaping of the evaluation.
type Link struct {
	bitrateBps float64
	fluctuate  bool
	minBps     float64
	maxBps     float64
	rng        *rand.Rand
	// rateFn/meanFn, when set, delegate rate selection to an external
	// model (e.g. a Gilbert-Elliott chain).
	rateFn func() float64
	meanFn func() float64
}

// minUsableBps floors drawn bitrates so a transfer always terminates
// (the paper's link dips to 0 momentarily; a transfer simply waits).
const minUsableBps = 1000

// NewLink creates a fixed-rate link.
func NewLink(bitrateBps float64) *Link {
	if bitrateBps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive bitrate %v", bitrateBps))
	}
	return &Link{bitrateBps: bitrateBps}
}

// NewFluctuatingLink creates a link whose per-transfer bitrate is drawn
// uniformly from [minBps, maxBps], deterministically from seed.
func NewFluctuatingLink(minBps, maxBps float64, seed int64) *Link {
	if maxBps <= 0 || maxBps < minBps {
		panic(fmt.Sprintf("netsim: invalid fluctuation range [%v, %v]", minBps, maxBps))
	}
	if minBps < 0 {
		minBps = 0
	}
	return &Link{
		fluctuate: true,
		minBps:    minBps,
		maxBps:    maxBps,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Rate returns the bitrate for the next transfer.
func (l *Link) Rate() float64 {
	if !l.fluctuate {
		return l.bitrateBps
	}
	if l.rateFn != nil {
		r := l.rateFn()
		if r < minUsableBps {
			r = minUsableBps
		}
		return r
	}
	r := l.minBps + l.rng.Float64()*(l.maxBps-l.minBps)
	if r < minUsableBps {
		r = minUsableBps
	}
	return r
}

// TransferTime returns the airtime to move bytes across the link and the
// bitrate used. Zero bytes take zero time.
func (l *Link) TransferTime(bytes int) (time.Duration, float64) {
	rate := l.Rate()
	if bytes <= 0 {
		return 0, rate
	}
	return time.Duration(float64(bytes) * 8 / rate * float64(time.Second)), rate
}

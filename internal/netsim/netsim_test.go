package netsim

import (
	"math"
	"testing"
	"time"
)

// MeanRate returns the expected bitrate of the link.
func (l *Link) MeanRate() float64 {
	if !l.fluctuate {
		return l.bitrateBps
	}
	if l.meanFn != nil {
		return l.meanFn()
	}
	return (l.minBps + l.maxBps) / 2
}

func TestClockStartsAtZero(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero-value clock should start at 0")
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Second)
	c.Advance(3 * time.Second)
	if c.Now() != 8*time.Second {
		t.Fatalf("clock = %v, want 8s", c.Now())
	}
	c.Advance(-time.Second)
	if c.Now() != 8*time.Second {
		t.Fatal("negative advance should be ignored")
	}
}

func TestNewLinkPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink(0) did not panic")
		}
	}()
	NewLink(0)
}

func TestFixedLinkTransferTime(t *testing.T) {
	l := NewLink(256000)
	d, rate := l.TransferTime(32000) // 256 kbit at 256 kbps = 1 s
	if rate != 256000 {
		t.Fatalf("rate = %v", rate)
	}
	if math.Abs(d.Seconds()-1) > 1e-9 {
		t.Fatalf("transfer time = %v, want 1s", d)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	l := NewLink(256000)
	if d, _ := l.TransferTime(0); d != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if d, _ := l.TransferTime(-10); d != 0 {
		t.Fatal("negative bytes should take zero time")
	}
}

func TestFluctuatingLinkRange(t *testing.T) {
	l := NewFluctuatingLink(0, 512000, 1)
	for i := 0; i < 1000; i++ {
		r := l.Rate()
		if r < minUsableBps || r > 512000 {
			t.Fatalf("rate %v out of range", r)
		}
	}
}

func TestFluctuatingLinkDeterministic(t *testing.T) {
	a := NewFluctuatingLink(0, 512000, 7)
	b := NewFluctuatingLink(0, 512000, 7)
	for i := 0; i < 50; i++ {
		if a.Rate() != b.Rate() {
			t.Fatal("same seed should produce identical rate sequences")
		}
	}
}

func TestFluctuatingLinkMeanRate(t *testing.T) {
	l := NewFluctuatingLink(0, 512000, 9)
	if l.MeanRate() != 256000 {
		t.Fatalf("mean rate = %v, want 256000", l.MeanRate())
	}
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += l.Rate()
	}
	if avg := sum / n; math.Abs(avg-256000) > 15000 {
		t.Fatalf("empirical mean %v far from 256000", avg)
	}
}

func TestFluctuatingLinkPanicsOnBadRange(t *testing.T) {
	for _, tc := range [][2]float64{{100, 50}, {0, 0}, {0, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFluctuatingLink(%v, %v) did not panic", tc[0], tc[1])
				}
			}()
			NewFluctuatingLink(tc[0], tc[1], 1)
		}()
	}
}

func TestFixedLinkMeanRate(t *testing.T) {
	if NewLink(128000).MeanRate() != 128000 {
		t.Fatal("fixed link mean should equal its bitrate")
	}
}

func TestTransferTimeScalesInverselyWithRate(t *testing.T) {
	fast := NewLink(512000)
	slow := NewLink(128000)
	df, _ := fast.TransferTime(64000)
	ds, _ := slow.TransferTime(64000)
	if math.Abs(ds.Seconds()-4*df.Seconds()) > 1e-9 {
		t.Fatalf("transfer times %v and %v not in 4:1 ratio", ds, df)
	}
}

func TestGilbertLinkRates(t *testing.T) {
	g := NewGilbertLink(512000, 32000, 0.1, 0.3, 1)
	for i := 0; i < 1000; i++ {
		r := g.Rate()
		if r != 512000 && r != 32000 {
			t.Fatalf("rate %v is neither good nor bad state", r)
		}
	}
}

func TestGilbertLinkVisitsBothStates(t *testing.T) {
	g := NewGilbertLink(512000, 32000, 0.2, 0.3, 2)
	good, bad := 0, 0
	for i := 0; i < 2000; i++ {
		if g.Rate() == 512000 {
			good++
		} else {
			bad++
		}
	}
	if good == 0 || bad == 0 {
		t.Fatalf("chain stuck: good=%d bad=%d", good, bad)
	}
	// Stationary Bad probability = 0.2/0.5 = 0.4.
	frac := float64(bad) / 2000
	if frac < 0.3 || frac > 0.5 {
		t.Fatalf("bad-state fraction %v far from stationary 0.4", frac)
	}
}

func TestGilbertLinkMeanRate(t *testing.T) {
	g := NewGilbertLink(500000, 100000, 0.25, 0.25, 3)
	// pBad = 0.5 → mean = 300000.
	if got := g.MeanRate(); math.Abs(got-300000) > 1 {
		t.Fatalf("MeanRate = %v, want 300000", got)
	}
}

func TestGilbertLinkBurstiness(t *testing.T) {
	// Low transition probabilities must produce long runs (bursts).
	g := NewGilbertLink(512000, 32000, 0.02, 0.05, 4)
	runs, length := 0, 0
	prev := g.Rate()
	for i := 0; i < 5000; i++ {
		r := g.Rate()
		if r == prev {
			length++
		} else {
			runs++
			prev = r
		}
	}
	if runs == 0 {
		t.Fatal("no transitions at all")
	}
	if avg := float64(5000) / float64(runs+1); avg < 10 {
		t.Fatalf("average run length %v too short for a bursty chain", avg)
	}
}

func TestGilbertAsLink(t *testing.T) {
	g := NewGilbertLink(512000, 32000, 0.1, 0.3, 5)
	l := g.AsLink()
	d, rate := l.TransferTime(64000)
	if rate != 512000 && rate != 32000 {
		t.Fatalf("adapted rate %v", rate)
	}
	if d <= 0 {
		t.Fatal("no transfer time")
	}
	if l.MeanRate() != g.MeanRate() {
		t.Fatal("adapted mean rate mismatch")
	}
}

func TestGilbertLinkPanicsOnBadParams(t *testing.T) {
	cases := []func(){
		func() { NewGilbertLink(0, 100, 0.1, 0.1, 1) },
		func() { NewGilbertLink(100, 200, 0.1, 0.1, 1) },
		func() { NewGilbertLink(200, 100, -0.1, 0.1, 1) },
		func() { NewGilbertLink(200, 100, 0.1, 0, 1) },
		func() { NewGilbertLink(200, 100, 0.1, 1.5, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGilbertLinkDeterministic(t *testing.T) {
	a := NewGilbertLink(512000, 32000, 0.1, 0.3, 7)
	b := NewGilbertLink(512000, 32000, 0.1, 0.3, 7)
	for i := 0; i < 200; i++ {
		if a.Rate() != b.Rate() {
			t.Fatal("same seed diverged")
		}
	}
}

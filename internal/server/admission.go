package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bees/internal/telemetry"
)

// AdmitPolicy selects how the server sheds load past its high-water
// marks. The same controller backs the TCP endpoint and the in-process
// scenario harness, so the policies measured in simulation are the ones
// deployed on the wire.
type AdmitPolicy string

const (
	// AdmitFIFO is the original first-come shedding: work is admitted in
	// arrival order until a high-water mark is met, then every further
	// sheddable frame is refused regardless of what it carries.
	AdmitFIFO AdmitPolicy = "fifo"
	// AdmitUtility sheds lowest-marginal-gain uploads first: above the
	// low-water occupancy it admits an upload only if its submodular
	// gain (the SSMM marginal gain carried in upload metadata) clears a
	// quantile of recently offered gains that rises with occupancy. The
	// high-water marks stay strict, so utility admission spends the same
	// byte budget as FIFO — it just spends it on the images that extend
	// coverage instead of whichever arrived first.
	AdmitUtility AdmitPolicy = "utility"
)

// ParseAdmitPolicy maps a flag/config string to a policy.
func ParseAdmitPolicy(s string) (AdmitPolicy, error) {
	switch AdmitPolicy(s) {
	case "", AdmitFIFO:
		return AdmitFIFO, nil
	case AdmitUtility:
		return AdmitUtility, nil
	}
	return "", fmt.Errorf("server: unknown admission policy %q (want %q or %q)", s, AdmitFIFO, AdmitUtility)
}

// AdmissionConfig tunes an Admission controller. The zero value selects
// FIFO with the documented per-field defaults.
type AdmissionConfig struct {
	// Policy selects FIFO or utility-aware shedding. Default AdmitFIFO.
	Policy AdmitPolicy
	// MaxFrames is the high-water mark on concurrently admitted frames.
	// Default 256.
	MaxFrames int
	// MaxBytes is the high-water mark on announced in-flight payload
	// bytes. Default 64 MiB.
	MaxBytes int64
	// LowWater is the occupancy fraction (of either mark) at which the
	// utility policy starts early-shedding low-gain uploads. Below it
	// both policies admit everything. Default 0.5.
	LowWater float64
	// Telemetry counts admissions and sheds (server.admit.*). Nil
	// disables instrumentation.
	Telemetry *telemetry.Registry
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Policy == "" {
		c.Policy = AdmitFIFO
	}
	if c.MaxFrames <= 0 {
		c.MaxFrames = 256
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.LowWater <= 0 || c.LowWater >= 1 {
		c.LowWater = 0.5
	}
	return c
}

// gainWindow is how many recently offered upload gains the utility
// policy remembers when placing its drop threshold.
const gainWindow = 256

// Admission is the load-shedding controller shared by the TCP server
// and the scenario harness: callers Charge each sheddable unit of work
// as it arrives, ask Admit whether to process or shed it, and Release
// the ticket when the work (or the shed) completes. Counters are atomic
// so concurrent connection handlers never serialize on admission; only
// the utility policy's gain reservoir takes a short lock.
type Admission struct {
	cfg    AdmissionConfig
	tel    *telemetry.Registry
	frames atomic.Int64
	bytes  atomic.Int64

	// Ring buffer of recently offered upload gains; the utility policy
	// places its drop threshold at a quantile of this window.
	mu     sync.Mutex
	gains  []float64
	gi     int
	gn     int
	sorted []float64 // scratch reused under mu
}

// NewAdmission creates a controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg = cfg.withDefaults()
	return &Admission{
		cfg:    cfg,
		tel:    cfg.Telemetry, // nil is a valid no-op sink
		gains:  make([]float64, gainWindow),
		sorted: make([]float64, 0, gainWindow),
	}
}

// Policy returns the configured shedding policy.
func (a *Admission) Policy() AdmitPolicy { return a.cfg.Policy }

// Inflight reports the currently charged frames and bytes.
func (a *Admission) Inflight() (frames int64, bytes int64) {
	return a.frames.Load(), a.bytes.Load()
}

// Ticket is one charged unit of sheddable work. The holder must call
// Release exactly once, whether the work was admitted or shed.
type Ticket struct {
	a          *Admission
	n          int64
	prevFrames int64
	prevBytes  int64
	released   bool
}

// Charge accounts one sheddable frame of n announced payload bytes. The
// charge happens before the payload is read, so overload is visible
// while the bytes are still crossing the link.
func (a *Admission) Charge(n int64) *Ticket {
	return &Ticket{
		a:          a,
		n:          n,
		prevFrames: a.frames.Add(1) - 1,
		prevBytes:  a.bytes.Add(n) - n,
	}
}

// Release returns the ticket's frames and bytes to the controller.
func (t *Ticket) Release() {
	if t.released {
		panic("server: admission ticket released twice")
	}
	t.released = true
	t.a.frames.Add(-1)
	t.a.bytes.Add(-t.n)
}

// OverHighWater reports whether the load that existed before this
// ticket's charge already met a high-water mark. The decision uses the
// pre-charge values so a frame never sheds itself: a lone client on an
// idle server always gets in.
func (t *Ticket) OverHighWater() bool {
	return t.prevFrames >= int64(t.a.cfg.MaxFrames) || t.prevBytes >= t.a.cfg.MaxBytes
}

// Occupancy is the pre-charge load as a fraction of the nearer
// high-water mark (≥ 1 means over).
func (t *Ticket) Occupancy() float64 {
	f := float64(t.prevFrames) / float64(t.a.cfg.MaxFrames)
	if b := float64(t.prevBytes) / float64(t.a.cfg.MaxBytes); b > f {
		return b
	}
	return f
}

// Admit decides whether the charged frame is processed or shed. gain is
// the frame's submodular utility — for a batched upload, the highest
// SSMM marginal gain among its items. A gain ≤ 0 means the frame is
// unranked (legacy client, query, stats relay): unranked frames always
// fall back to the FIFO rule, so a fleet that never stamps gains
// behaves exactly as before regardless of policy.
func (a *Admission) Admit(t *Ticket, gain float64) bool {
	if a.cfg.Policy != AdmitUtility || gain <= 0 {
		ok := !t.OverHighWater()
		a.count(ok, false)
		return ok
	}
	// Record the offered gain first: the arriving frame is part of the
	// distribution it is judged against, so a uniform-gain stream always
	// ties its own threshold and is admitted.
	a.record(gain)
	if t.OverHighWater() {
		a.count(false, false)
		return false
	}
	occ := t.Occupancy()
	if occ <= a.cfg.LowWater {
		a.count(true, false)
		return true
	}
	// Early drop: the threshold quantile rises linearly from the lowest
	// recent gain at the low-water mark to the highest just under the
	// high-water mark, so pressure sheds the least useful uploads first.
	q := (occ - a.cfg.LowWater) / (1 - a.cfg.LowWater)
	ok := gain >= a.gainQuantile(q)
	a.count(ok, !ok)
	return ok
}

func (a *Admission) count(admitted, early bool) {
	switch {
	case admitted:
		a.tel.Counter("server.admit.admitted").Inc()
	case early:
		a.tel.Counter("server.admit.shed_utility").Inc()
	default:
		a.tel.Counter("server.admit.shed_hwm").Inc()
	}
}

func (a *Admission) record(gain float64) {
	a.mu.Lock()
	a.gains[a.gi] = gain
	a.gi = (a.gi + 1) % len(a.gains)
	if a.gn < len(a.gains) {
		a.gn++
	}
	a.mu.Unlock()
}

// gainQuantile returns the nearest-rank q-quantile of the recorded gain
// window (0 when the window is empty, so the first frames always pass).
func (a *Admission) gainQuantile(q float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gn == 0 {
		return 0
	}
	a.sorted = append(a.sorted[:0], a.gains[:a.gn]...)
	sort.Float64s(a.sorted)
	idx := int(q * float64(a.gn-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= a.gn {
		idx = a.gn - 1
	}
	return a.sorted[idx]
}

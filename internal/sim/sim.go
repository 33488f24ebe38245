// Package sim runs the multi-device, virtual-time experiments of the
// evaluation: the battery-lifetime runs of Fig. 9 (one phone uploading a
// group of images every 20 minutes until its battery dies) and the
// coverage runs of Fig. 12 (a fleet of phones sharing one cloud server
// until every battery dies).
package sim

import (
	"time"

	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/metrics"
	"bees/internal/netsim"
	"bees/internal/server"
)

// LifetimeConfig parameterizes a Fig. 9 run. The paper uses 150 groups of
// 40 Paris images, ~50% cross-batch redundancy, one group every 20
// minutes, screen always on.
type LifetimeConfig struct {
	Seed       int64
	Groups     int
	PerGroup   int
	Redundancy float64
	Interval   time.Duration
	BitrateBps float64
	// BatteryJ scales the battery so scaled-down workloads still span
	// multiple groups; 0 uses the paper's default battery.
	BatteryJ float64
}

// DefaultLifetimeConfig returns the paper's Fig. 9 parameters.
func DefaultLifetimeConfig(seed int64) LifetimeConfig {
	return LifetimeConfig{
		Seed:       seed,
		Groups:     150,
		PerGroup:   40,
		Redundancy: 0.5,
		Interval:   20 * time.Minute,
		BitrateBps: 256000,
	}
}

// EbatPoint is one sample of the remaining-energy curve.
type EbatPoint struct {
	Time time.Duration
	Ebat float64
}

// LifetimeResult is one scheme's battery-lifetime outcome.
type LifetimeResult struct {
	Scheme string
	// Series samples Ebat after every interval, starting at (0, 1).
	Series []EbatPoint
	// GroupsUploaded counts the groups fully processed before the
	// battery died.
	GroupsUploaded int
	// Lifetime is the virtual time at which the battery died (or the
	// run ended).
	Lifetime time.Duration
}

// lifetimeWorkload lazily builds per-group batches plus the server twins
// that set the cross-batch redundancy ratio. All schemes replay the same
// workload (same seed) against fresh devices and servers.
type lifetimeWorkload struct {
	cfg     LifetimeConfig
	builder *dataset.Builder
	// twins are pre-extracted per group so the feature sets can be
	// shared across scheme runs without re-extraction.
	extractCfg features.Config
}

func newLifetimeWorkload(cfg LifetimeConfig) *lifetimeWorkload {
	return &lifetimeWorkload{
		cfg:        cfg,
		builder:    dataset.NewBuilder(cfg.Seed, 4000),
		extractCfg: features.DefaultConfig(),
	}
}

// group builds batch g and seeds the server with its twins.
func (w *lifetimeWorkload) group(g int, srv *server.Server) []*dataset.Image {
	// Deterministic per (seed, group): a fresh builder namespace per call
	// would break group identity across schemes, so the workload keeps
	// one builder and relies on being replayed in the same order.
	batch := make([]*dataset.Image, 0, w.cfg.PerGroup)
	nTwins := int(w.cfg.Redundancy*float64(w.cfg.PerGroup) + 0.5)
	for i := 0; i < w.cfg.PerGroup; i++ {
		grp := w.builder.NewScene()
		img := w.builder.Image(grp, dataset.KindCanonical)
		batch = append(batch, img)
		if i < nTwins && srv != nil {
			twin := w.builder.Image(grp, dataset.KindNearDup)
			set := features.ExtractORB(twin.Render(), w.extractCfg)
			srv.SeedIndex(set, server.UploadMeta{GroupID: twin.GroupID})
			twin.Free()
		}
	}
	return batch
}

// RunLifetime replays the workload under one scheme until the battery
// dies or the groups run out.
func RunLifetime(scheme core.Scheme, cfg LifetimeConfig) LifetimeResult {
	if cfg.Groups <= 0 || cfg.PerGroup <= 0 {
		panic("sim: lifetime config requires positive group counts")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Minute
	}
	if cfg.BitrateBps <= 0 {
		cfg.BitrateBps = 256000
	}
	battery := energy.NewDefaultBattery()
	if cfg.BatteryJ > 0 {
		battery = energy.NewBattery(cfg.BatteryJ)
	}
	dev := core.NewDevice(battery, netsim.NewLink(cfg.BitrateBps), energy.DefaultModel())
	srv := server.NewDefault()
	w := newLifetimeWorkload(cfg)

	res := LifetimeResult{
		Scheme: scheme.Name(),
		Series: []EbatPoint{{Time: 0, Ebat: 1}},
	}
	for g := 0; g < cfg.Groups; g++ {
		batch := w.group(g, srv)
		intervalStart := dev.Clock.Now()
		scheme.ProcessBatch(dev, srv, batch)
		if dev.Battery.Empty() {
			res.Lifetime = dev.Clock.Now()
			res.Series = append(res.Series, EbatPoint{Time: dev.Clock.Now(), Ebat: 0})
			return res
		}
		res.GroupsUploaded++
		// Idle (screen on) until the next 20-minute slot.
		if spent := dev.Clock.Now() - intervalStart; spent < cfg.Interval {
			dev.Idle(cfg.Interval - spent)
		}
		res.Series = append(res.Series, EbatPoint{Time: dev.Clock.Now(), Ebat: dev.Battery.Ebat()})
		if dev.Battery.Empty() {
			break
		}
	}
	res.Lifetime = dev.Clock.Now()
	return res
}

// CoverageConfig parameterizes a Fig. 12 run. The paper splits 165,539
// geotagged images across 25 phones in groups of 40 per 20 minutes.
type CoverageConfig struct {
	Seed       int64
	Phones     int
	PerGroup   int
	Images     int
	Locations  int
	Interval   time.Duration
	BitrateBps float64
	BatteryJ   float64
}

// DefaultCoverageConfig returns a laptop-scale version of the paper's
// setup: the image count and battery are scaled together (≈10× down) so
// phones still die from battery exhaustion — the effect Fig. 12 measures
// — before running out of images. The full 165,539-image run is
// reachable by raising Images/Locations and restoring the battery.
func DefaultCoverageConfig(seed int64) CoverageConfig {
	return CoverageConfig{
		Seed:       seed,
		Phones:     25,
		PerGroup:   40,
		Images:     16000,
		Locations:  5600,
		Interval:   20 * time.Minute,
		BitrateBps: 256000,
		BatteryJ:   15000,
	}
}

// CoverageResult is one scheme's coverage outcome.
type CoverageResult struct {
	Scheme string
	// TotalImages and TotalLocations describe the test imageset.
	TotalImages    int
	TotalLocations int
	// Uploaded counts images the server received; UniqueLocations counts
	// distinct geotags among them — the paper's coverage measure.
	Uploaded        int
	UniqueLocations int
}

// RunCoverage splits a Paris-like set across a phone fleet and runs
// until every battery dies (or images run out).
func RunCoverage(scheme core.Scheme, cfg CoverageConfig) CoverageResult {
	if cfg.Phones <= 0 || cfg.PerGroup <= 0 {
		panic("sim: coverage config requires positive sizes")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Minute
	}
	if cfg.BitrateBps <= 0 {
		cfg.BitrateBps = 256000
	}
	paris := dataset.NewParis(cfg.Seed, cfg.Images, cfg.Locations)
	srv := server.NewDefault()

	// Split images across phones in arrival order, like the paper's
	// equal division.
	perPhone := (len(paris.Images) + cfg.Phones - 1) / cfg.Phones
	phones := make([]*phoneState, 0, cfg.Phones)
	model := energy.DefaultModel()
	for p := 0; p < cfg.Phones; p++ {
		lo := p * perPhone
		if lo >= len(paris.Images) {
			break
		}
		hi := lo + perPhone
		if hi > len(paris.Images) {
			hi = len(paris.Images)
		}
		battery := energy.NewDefaultBattery()
		if cfg.BatteryJ > 0 {
			battery = energy.NewBattery(cfg.BatteryJ)
		}
		phones = append(phones, &phoneState{
			dev:    core.NewDevice(battery, netsim.NewLink(cfg.BitrateBps), model),
			images: paris.Images[lo:hi],
		})
	}

	// Interval-by-interval round-robin: each alive phone uploads its next
	// group, then idles out the rest of the interval.
	for {
		alive := false
		for _, ph := range phones {
			if ph.dev.Battery.Empty() || ph.next >= len(ph.images) {
				continue
			}
			alive = true
			hi := ph.next + cfg.PerGroup
			if hi > len(ph.images) {
				hi = len(ph.images)
			}
			batch := ph.images[ph.next:hi]
			ph.next = hi
			start := ph.dev.Clock.Now()
			scheme.ProcessBatch(ph.dev, srv, batch)
			if spent := ph.dev.Clock.Now() - start; spent < cfg.Interval {
				ph.dev.Idle(cfg.Interval - spent)
			}
		}
		if !alive {
			break
		}
	}

	metas := srv.UploadedMetas()
	lats := make([]float64, 0, len(metas))
	lons := make([]float64, 0, len(metas))
	for _, m := range metas {
		lats = append(lats, m.Lat)
		lons = append(lons, m.Lon)
	}
	allLats := make([]float64, 0, len(paris.Images))
	allLons := make([]float64, 0, len(paris.Images))
	for _, img := range paris.Images {
		allLats = append(allLats, img.Lat)
		allLons = append(allLons, img.Lon)
	}
	return CoverageResult{
		Scheme:          scheme.Name(),
		TotalImages:     len(paris.Images),
		TotalLocations:  metrics.UniqueLocations(allLats, allLons),
		Uploaded:        len(metas),
		UniqueLocations: metrics.UniqueLocations(lats, lons),
	}
}

type phoneState struct {
	dev    *core.Device
	images []*dataset.Image
	next   int
}

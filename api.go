package bees

import (
	"time"

	"bees/internal/baseline"
	"bees/internal/blockstore"
	"bees/internal/client"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/index"
	"bees/internal/netsim"
	"bees/internal/server"
	"bees/internal/sim"
	"bees/internal/submod"
	"bees/internal/telemetry"
)

// Core types re-exported for users of the public API.
type (
	// Scheme is any image-sharing strategy (BEES or a baseline).
	Scheme = core.Scheme
	// BatchReport describes one processed batch.
	BatchReport = core.BatchReport
	// Device is the smartphone model: battery, link, clock, meter.
	Device = core.Device
	// Server is the cloud server: similarity index plus blob accounting.
	Server = server.Server
	// Image is a dataset image with lazy rendering.
	Image = dataset.Image
	// DisasterBatch is a workload with controlled redundancy.
	DisasterBatch = dataset.DisasterBatch
	// ParisSet is a geotagged workload with hotspot redundancy.
	ParisSet = dataset.ParisSet
	// Config parameterizes the BEES pipeline.
	Config = core.Config
	// Battery tracks remaining smartphone energy.
	Battery = energy.Battery
	// CostModel holds the energy calibration constants.
	CostModel = energy.CostModel
	// Client is a TCP connection to a beesd server.
	Client = client.Client
	// LifetimeConfig parameterizes battery-lifetime simulations.
	LifetimeConfig = sim.LifetimeConfig
	// LifetimeResult reports a battery-lifetime simulation.
	LifetimeResult = sim.LifetimeResult
	// CoverageConfig parameterizes coverage simulations.
	CoverageConfig = sim.CoverageConfig
	// CoverageResult reports a coverage simulation.
	CoverageResult = sim.CoverageResult
	// IndexConfig parameterizes the server's similarity index (LSH
	// tables, bits per key, candidate limit, re-rank radius, seed).
	IndexConfig = index.Config
	// Telemetry is the metrics registry servers, clients and pipelines
	// report into; share one instance to scrape everything at once.
	Telemetry = telemetry.Registry
	// UploadItem is one image in a batched server upload.
	UploadItem = server.UploadItem
	// ServerAPI is the one server surface every Scheme drives (the
	// parameter of Scheme.ProcessBatch): a batched similarity query plus
	// nonce-carrying uploads, implemented by both the in-process Server
	// and the TCP RemoteServer adapter; replays under the same nonce are
	// exactly-once.
	ServerAPI = core.ServerAPI
	// BlockStoreConfig parameterizes the content-addressed block store
	// behind delta uploads (block size, telemetry sink).
	BlockStoreConfig = blockstore.Config
	// BlockStore is the refcounted content-addressed block store itself,
	// reachable from a Server via its Blocks accessor.
	BlockStore = blockstore.Store
)

// Telemetry counter names of the block-transfer path, re-exported so
// API users can read them from snapshots without importing internals.
// Server side: blocks stored/staged and the bytes deduplication saved.
// Client side: blocks queried, sent, and skipped because the server
// already held them.
const (
	MetricBlockPutBlocks      = "blockstore.put.blocks"
	MetricBlockPutBytes       = "blockstore.put.bytes"
	MetricBlockDupBlocks      = "blockstore.put.dup_blocks"
	MetricBlockDedupBytes     = "blockstore.dedup.bytes"
	MetricClientBlocksSent    = "client.blocks.sent"
	MetricClientBlocksSkipped = "client.blocks.skipped"
)

// Energy categories of BatchReport.Energy, re-exported for breakdowns.
const (
	CatExtract   = energy.CatExtract
	CatFeatureTx = energy.CatFeatureTx
	CatImageTx   = energy.CatImageTx
	CatCompress  = energy.CatCompress
	CatRx        = energy.CatRx
	CatScreen    = energy.CatScreen
)

// New returns the full BEES pipeline with default configuration.
func New() Scheme { return core.New(core.DefaultConfig()) }

// NewWithConfig returns a BEES pipeline with a custom configuration.
func NewWithConfig(cfg Config) Scheme { return core.New(cfg) }

// DefaultConfig returns the evaluation's BEES configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDirect returns the Direct Upload baseline.
func NewDirect() Scheme { return baseline.Direct{} }

// NewSmartEye returns the SmartEye baseline (PCA-SIFT, cross-batch only).
func NewSmartEye() Scheme { return baseline.NewSmartEye() }

// NewMRC returns the MRC baseline (ORB + thumbnail feedback).
func NewMRC() Scheme { return baseline.NewMRC() }

// NewBEESEA returns BEES without energy-aware adaptation.
func NewBEESEA() Scheme { return baseline.NewBEESEA() }

// serverConfig collects functional options for NewServer.
type serverConfig struct {
	idx index.Config
	tel *telemetry.Registry
}

// ServerOption customizes NewServer, mirroring NewDevice's options.
type ServerOption func(*serverConfig)

// WithIndexConfig replaces the similarity-index configuration.
func WithIndexConfig(cfg IndexConfig) ServerOption {
	return func(c *serverConfig) { c.idx = cfg }
}

// WithServerTelemetry attaches a metrics registry to the server, which
// then counts index queries and uploads ("server.index.*").
func WithServerTelemetry(reg *Telemetry) ServerOption {
	return func(c *serverConfig) { c.tel = reg }
}

// NewTelemetry creates an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewServer creates a cloud server; with no options it is identical to
// one with the default index configuration.
func NewServer(opts ...ServerOption) *Server {
	cfg := serverConfig{idx: index.DefaultConfig()}
	for _, opt := range opts {
		opt(&cfg)
	}
	return server.NewWithConfig(server.Config{Index: cfg.idx, Telemetry: cfg.tel})
}

// deviceConfig collects functional options for NewDevice.
type deviceConfig struct {
	batteryJ float64
	link     *netsim.Link
	model    energy.CostModel
}

// DeviceOption customizes NewDevice.
type DeviceOption func(*deviceConfig)

// WithBitrate fixes the uplink bitrate in bits per second.
func WithBitrate(bps float64) DeviceOption {
	return func(c *deviceConfig) { c.link = netsim.NewLink(bps) }
}

// WithFluctuatingLink draws a per-transfer bitrate uniformly from
// [minBps, maxBps], like the paper's 0–512 Kbps shaped WiFi.
func WithFluctuatingLink(minBps, maxBps float64, seed int64) DeviceOption {
	return func(c *deviceConfig) { c.link = netsim.NewFluctuatingLink(minBps, maxBps, seed) }
}

// WithGilbertLink models bursty disaster connectivity with a
// two-state Gilbert-Elliott chain alternating between a good and a bad
// bitrate.
func WithGilbertLink(goodBps, badBps, pGoodToBad, pBadToGood float64, seed int64) DeviceOption {
	return func(c *deviceConfig) {
		c.link = netsim.NewGilbertLink(goodBps, badBps, pGoodToBad, pBadToGood, seed).AsLink()
	}
}

// NewPhotoNet returns the PhotoNet extension baseline (metadata-based
// redundancy elimination from the paper's related work).
func NewPhotoNet() Scheme { return baseline.NewPhotoNet() }

// WithBatteryJ sets the battery capacity in Joules (default: the paper's
// 3150 mAh at 3.8 V).
func WithBatteryJ(j float64) DeviceOption {
	return func(c *deviceConfig) { c.batteryJ = j }
}

// WithCostModel overrides the energy calibration constants.
func WithCostModel(m CostModel) DeviceOption {
	return func(c *deviceConfig) { c.model = m }
}

// NewDevice assembles a smartphone device. Defaults: full paper battery,
// fixed 256 Kbps link, default cost model.
func NewDevice(opts ...DeviceOption) *Device {
	cfg := deviceConfig{model: energy.DefaultModel()}
	for _, opt := range opts {
		opt(&cfg)
	}
	battery := energy.NewDefaultBattery()
	if cfg.batteryJ > 0 {
		battery = energy.NewBattery(cfg.batteryJ)
	}
	if cfg.link == nil {
		cfg.link = netsim.NewLink(256_000)
	}
	return core.NewDevice(battery, cfg.link, cfg.model)
}

// NewKentucky generates a Kentucky-style dataset: nGroups scenes of 4
// similar images each.
func NewKentucky(seed int64, nGroups int) []*Image {
	return dataset.NewKentucky(seed, nGroups).Images
}

// NewDisasterBatch generates a disaster-style batch: total images with
// inBatchDup near-duplicates of other batch members and server twins
// covering crossRatio of the unique images (seed them with SeedServer to
// set the cross-batch redundancy ratio).
func NewDisasterBatch(seed int64, total, inBatchDup int, crossRatio float64) *DisasterBatch {
	return dataset.NewDisasterBatch(seed, total, inBatchDup, crossRatio)
}

// NewParis generates a Paris-style geotagged dataset with heavy-tailed
// location popularity.
func NewParis(seed int64, images, locations int) *ParisSet {
	return dataset.NewParis(seed, images, locations)
}

// SeedServer indexes a batch's server twins so its cross-batch
// redundancy ratio takes effect (bytes are not counted as uploads).
func SeedServer(srv *Server, d *DisasterBatch) {
	// Rendering + extraction dominates seeding time, so it runs across
	// all host cores; the index inserts stay serial so seeded IDs are
	// assigned deterministically.
	cfg := features.DefaultConfig()
	sets := make([]*features.BinarySet, len(d.ServerTwins))
	core.ForEachIndex(len(d.ServerTwins), func(i int) {
		tw := d.ServerTwins[i]
		sets[i] = features.ExtractORB(tw.Render(), cfg)
		tw.Free()
	})
	for i, tw := range d.ServerTwins {
		srv.SeedIndex(sets[i], server.UploadMeta{GroupID: tw.GroupID, Lat: tw.Lat, Lon: tw.Lon})
	}
}

// RunLifetime replays the paper's battery-lifetime experiment (Fig. 9)
// for one scheme.
func RunLifetime(scheme Scheme, cfg LifetimeConfig) LifetimeResult {
	return sim.RunLifetime(scheme, cfg)
}

// DefaultLifetimeConfig returns the paper's Fig. 9 parameters.
func DefaultLifetimeConfig(seed int64) LifetimeConfig {
	return sim.DefaultLifetimeConfig(seed)
}

// RunCoverage replays the paper's coverage experiment (Fig. 12) for one
// scheme.
func RunCoverage(scheme Scheme, cfg CoverageConfig) CoverageResult {
	return sim.RunCoverage(scheme, cfg)
}

// DefaultCoverageConfig returns a laptop-scale Fig. 12 configuration.
func DefaultCoverageConfig(seed int64) CoverageConfig {
	return sim.DefaultCoverageConfig(seed)
}

// SummarizeBatch runs SSMM standalone: it extracts features, builds the
// batch similarity graph, partitions it at the energy-derived threshold
// Tw(ebat), and returns the selected unique-image subset plus the
// similarity clusters (index slices into batch). This is the in-batch
// redundancy detector of the pipeline exposed as an album summarizer.
//
// Since the batch-first rework the graph is built exactly as the
// in-pipeline IBRD stage builds it: pairwise similarity uses the
// strongest core.DefaultConfig().GraphDescriptors descriptors per image
// rather than the full extracted set, so clusters/selections can differ
// from the earlier full-set Jaccard implementation (and will track the
// pipeline if those knobs change).
func SummarizeBatch(batch []*Image, ebat float64) (selected []*Image, clusters [][]int) {
	// Built on the pipeline's own helpers (host-parallel extraction and
	// graph construction with the IBRD knobs), so the standalone
	// summarizer and in-pipeline IBRD stay consistent as config changes.
	cfg := core.DefaultConfig()
	sets := core.ExtractAll(batch, 0, cfg.Extraction)
	for _, img := range batch {
		img.Free()
	}
	all := make([]int, len(batch))
	for i := range all {
		all[i] = i
	}
	g := core.BuildBatchGraph(sets, all, cfg.GraphDescriptors, cfg.HammingMax)
	res := submod.Summarize(g, core.SSMMThreshold(ebat), cfg.SSMM)
	selected = make([]*Image, 0, len(res.Selected))
	for _, i := range res.Selected {
		selected = append(selected, batch[i])
	}
	return selected, res.Clusters
}

// ServeTCP exposes a server over the wire protocol on addr (e.g.
// "127.0.0.1:7700"); it returns the TCP wrapper (Close to stop) and the
// bound address.
func ServeTCP(srv *Server, addr string) (*server.TCPServer, string, error) {
	tcp := server.NewTCP(srv)
	bound, err := tcp.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return tcp, bound.String(), nil
}

// Dial connects a client to a beesd server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return client.Dial(addr, timeout)
}

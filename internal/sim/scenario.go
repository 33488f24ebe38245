package sim

// City-scale scenario harness: an event-driven virtual-clock simulation
// of thousands of devices with heavy-tailed upload demand pushing chunks
// over per-device Gilbert-Elliott links into the real shedding server —
// the same server.Admission controller that fronts the TCP endpoint,
// applying admitted uploads to a real server.Server. The harness
// measures what the paper's evaluation cannot see at single-pipeline
// scale: capture→server-visible freshness (p50/p99), per-client shed
// rates, Jain's fairness index over served bytes, and submodular
// (unique-cell) coverage under contention.
//
// Every run is seed-deterministic: one event loop, one goroutine,
// per-device RNGs derived from the scenario seed, and a tie-broken
// event heap — the same seed yields a byte-identical JSON report
// regardless of GOMAXPROCS (pinned by TestScenarioDeterministic and the
// testdata/scenario.golden fixture).

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bees/internal/metrics"
	"bees/internal/netsim"
	"bees/internal/server"
	"bees/internal/telemetry"
)

// The city every scenario runs in.
const (
	// meanCapturePeriod is the mean time between captures for a device
	// with demand factor 1. Each device captures at
	// factor/meanCapturePeriod, where factor is Pareto(paretoAlpha)
	// distributed and capped at maxDemandFactor, so a few devices
	// produce most of the offered load (alpha 1.2: heavy-tailed, mean 6).
	meanCapturePeriod = 30 * time.Second
	paretoAlpha       = 1.2
	maxDemandFactor   = 100

	// chunkBytes is the median upload chunk size; sizes are lognormal
	// around it with sigma chunkSigma.
	chunkBytes = 24000
	chunkSigma = 0.5

	// cells is the number of distinct scene cells in the city. Each
	// device draws from its homeCells home cells with probability
	// locality, else uniformly. A chunk's submodular gain is the
	// diminishing novelty of its cell for that device, 1/(1+priorVisits),
	// the same shape as the SSMM marginal-gain ranking the pipeline
	// stamps into upload metadata.
	cells     = 4096
	homeCells = 4
	locality  = 0.85

	// Per-device Gilbert-Elliott uplink (see netsim.GilbertLink): good
	// 512 Kbps, bad 32 Kbps, p(G→B) 0.1, p(B→G) 0.3.
	goodBps    = 512000
	badBps     = 32000
	pGoodToBad = 0.1
	pBadToGood = 0.3

	// deviceQueue bounds each device's local send queue; a capture that
	// finds it full is dropped on-device (counted, never offered to the
	// server).
	deviceQueue = 32
)

// ScenarioConfig parameterizes a city-scale run. The zero value of every
// field selects the documented default, so ScenarioConfig{Seed: 1} is a
// complete 1000-device scenario.
type ScenarioConfig struct {
	Seed int64
	// Devices is the fleet size. Default 1000.
	Devices int
	// Duration is how long devices keep capturing; in-flight work drains
	// to completion afterwards so every chunk is accounted. Default 10m.
	Duration time.Duration

	// ServiceBps is the rate at which the server works through admitted
	// upload bytes (index + store throughput). Default 8 Mbps.
	ServiceBps float64
	// Admission configures the real server-side shedding controller —
	// the same server.Admission that fronts the TCP endpoint. Zero-value
	// fields default per AdmissionConfig, except the high-water marks,
	// which default scenario-sized: MaxFrames 64, MaxBytes 4 MiB.
	Admission server.AdmissionConfig

	// Telemetry optionally receives scenario counters (sim.scenario.*)
	// and, if Admission.Telemetry is nil, the admission counters too.
	Telemetry *telemetry.Registry
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Devices <= 0 {
		c.Devices = 1000
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Minute
	}
	if c.ServiceBps <= 0 {
		c.ServiceBps = 8e6
	}
	if c.Admission.MaxFrames <= 0 {
		c.Admission.MaxFrames = 64
	}
	if c.Admission.MaxBytes <= 0 {
		c.Admission.MaxBytes = 4 << 20
	}
	if c.Admission.Telemetry == nil {
		c.Admission.Telemetry = c.Telemetry
	}
	return c
}

// ClientReport is one device's scenario outcome.
type ClientReport struct {
	Client         int     `json:"client"`
	CapturedChunks int     `json:"captured_chunks"`
	CapturedBytes  int64   `json:"captured_bytes"`
	DeviceDropped  int     `json:"device_dropped"`
	Arrived        int     `json:"arrived"`
	ServedChunks   int     `json:"served_chunks"`
	ServedBytes    int64   `json:"served_bytes"`
	ShedChunks     int     `json:"shed_chunks"`
	ShedBytes      int64   `json:"shed_bytes"`
	ShedRate       float64 `json:"shed_rate"`
	FreshnessP50Ms float64 `json:"freshness_p50_ms"`
	FreshnessP99Ms float64 `json:"freshness_p99_ms"`
}

// ScenarioReport is the machine-readable result of one scenario run.
// Field order and encodings are stable: the same config and seed must
// marshal to byte-identical JSON (the deterministic-replay regression
// gate depends on it).
type ScenarioReport struct {
	Seed           int64   `json:"seed"`
	Policy         string  `json:"policy"`
	Devices        int     `json:"devices"`
	DurationMs     float64 `json:"duration_ms"`
	EndMs          float64 `json:"end_ms"`
	CapturedChunks int     `json:"captured_chunks"`
	CapturedBytes  int64   `json:"captured_bytes"`
	DeviceDropped  int     `json:"device_dropped"`
	Arrived        int     `json:"arrived"`
	ServedChunks   int     `json:"served_chunks"`
	ServedBytes    int64   `json:"served_bytes"`
	ShedChunks     int     `json:"shed_chunks"`
	ShedBytes      int64   `json:"shed_bytes"`
	// ShedRate is server sheds over server arrivals.
	ShedRate float64 `json:"shed_rate"`
	// Freshness quantiles (capture → server-visible) come from the
	// memory-bounded streaming estimator so the harness scales past what
	// per-sample retention allows; per-client quantiles are exact.
	FreshnessP50Ms float64 `json:"freshness_p50_ms"`
	FreshnessP99Ms float64 `json:"freshness_p99_ms"`
	// JainServedBytes is Jain's fairness index over per-client served
	// bytes: 1 = perfectly even, 1/n = one client got everything.
	JainServedBytes float64 `json:"jain_served_bytes"`
	// CellsCaptured/CellsServed count unique scene cells — the
	// submodular coverage the fleet offered vs what survived admission
	// (CellsServed is read back from the real server's stored metadata).
	CellsCaptured int     `json:"cells_captured"`
	CellsServed   int     `json:"cells_served"`
	Coverage      float64 `json:"coverage"`
	// ServerImages/ServerBytes are the real server.Server's accounting
	// and must equal ServedChunks/ServedBytes.
	ServerImages int            `json:"server_images"`
	ServerBytes  int64          `json:"server_bytes"`
	Clients      []ClientReport `json:"clients,omitempty"`
}

// JSON renders the report in its canonical byte-stable form.
func (r *ScenarioReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("sim: scenario report marshal: " + err.Error()) // no unmarshalable fields
	}
	return append(b, '\n')
}

// --- event machinery ------------------------------------------------------

type eventKind uint8

const (
	evCapture eventKind = iota // device captures a chunk
	evArrive                   // a chunk's uplink transfer completes at the server
	evServed                   // the server finishes applying a chunk
)

type chunk struct {
	client   int
	cell     int
	bytes    int
	gain     float64
	captured time.Duration
	ticket   *server.Ticket
}

type event struct {
	at    time.Duration
	seq   uint64 // tie-break: push order
	kind  eventKind
	dev   int
	chunk *chunk
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type scenarioDevice struct {
	rng       *rand.Rand
	link      *netsim.GilbertLink
	period    time.Duration // mean capture interval after demand factor
	homeCells []int
	visits    map[int]int
	queue     []*chunk
	sending   bool
}

// scenarioState is the single-goroutine event loop driving one run.
type scenarioState struct {
	cfg     ScenarioConfig
	now     time.Duration
	seq     uint64
	events  eventHeap
	devices []*scenarioDevice

	adm *server.Admission
	srv *server.Server
	// serverQueue holds admitted chunks awaiting service, FIFO; the head
	// is in service when serving is true.
	serverQueue []*chunk
	serving     bool

	clients   []ClientReport
	freshness [][]float64 // per client, milliseconds
	global    *metrics.QuantileEstimator
	cellsSeen map[int]struct{}
	tel       *telemetry.Registry
}

// RunScenario executes one deterministic city-scale run and returns its
// report.
func RunScenario(cfg ScenarioConfig) *ScenarioReport {
	cfg = cfg.withDefaults()
	s := &scenarioState{
		cfg:       cfg,
		adm:       server.NewAdmission(cfg.Admission),
		srv:       server.NewDefault(),
		clients:   make([]ClientReport, cfg.Devices),
		freshness: make([][]float64, cfg.Devices),
		// 1 ms … 1 h at ≤ √1.05 ≈ 2.5% relative error.
		global:    metrics.NewQuantileEstimator(1, 3.6e6, 1.05),
		cellsSeen: make(map[int]struct{}),
		tel:       cfg.Telemetry, // nil is a valid no-op sink
	}
	for i := 0; i < cfg.Devices; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1_000_003 + 17))
		factor := math.Pow(1-rng.Float64(), -1/paretoAlpha)
		if factor > maxDemandFactor {
			factor = maxDemandFactor
		}
		home := make([]int, homeCells)
		for h := range home {
			home[h] = rng.Intn(cells)
		}
		d := &scenarioDevice{
			rng:       rng,
			link:      netsim.NewGilbertLink(goodBps, badBps, pGoodToBad, pBadToGood, cfg.Seed^(int64(i)+0x5bd1e995)),
			period:    time.Duration(float64(meanCapturePeriod) / factor),
			homeCells: home,
			visits:    make(map[int]int),
		}
		s.devices = append(s.devices, d)
		s.clients[i].Client = i
		// Stagger first captures exponentially so the fleet does not
		// fire in phase at t=0.
		s.push(event{at: d.nextDelay(), kind: evCapture, dev: i})
	}
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		switch e.kind {
		case evCapture:
			s.capture(e.dev)
		case evArrive:
			s.arrive(e.chunk)
		case evServed:
			s.served(e.chunk)
		}
	}
	return s.report()
}

func (s *scenarioState) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (d *scenarioDevice) nextDelay() time.Duration {
	return time.Duration(d.rng.ExpFloat64() * float64(d.period))
}

// capture models one image chunk leaving the device pipeline: pick a
// scene cell under the locality model, rank it with its diminishing
// marginal novelty (the scenario's stand-in for the SSMM Gains the real
// pipeline stamps), and enqueue it on the bounded device send queue.
func (s *scenarioState) capture(dev int) {
	d := s.devices[dev]
	cr := &s.clients[dev]

	cell := d.homeCells[d.rng.Intn(len(d.homeCells))]
	if d.rng.Float64() >= locality {
		cell = d.rng.Intn(cells)
	}
	gain := 1.0 / float64(1+d.visits[cell])
	d.visits[cell]++
	bytes := int(float64(chunkBytes) * math.Exp(chunkSigma*d.rng.NormFloat64()))
	if bytes < 512 {
		bytes = 512
	}
	cr.CapturedChunks++
	cr.CapturedBytes += int64(bytes)
	s.cellsSeen[cell] = struct{}{}
	s.tel.Counter("sim.scenario.captured").Inc()

	if len(d.queue) >= deviceQueue {
		cr.DeviceDropped++
		s.tel.Counter("sim.scenario.device_dropped").Inc()
	} else {
		d.queue = append(d.queue, &chunk{
			client:   dev,
			cell:     cell,
			bytes:    bytes,
			gain:     gain,
			captured: s.now,
		})
		if !d.sending {
			s.startSend(dev)
		}
	}
	if next := s.now + d.nextDelay(); next <= s.cfg.Duration {
		s.push(event{at: next, kind: evCapture, dev: dev})
	}
}

// startSend begins the uplink transfer of the device's oldest queued
// chunk over its Gilbert-Elliott link.
func (s *scenarioState) startSend(dev int) {
	d := s.devices[dev]
	c := d.queue[0]
	d.queue = d.queue[1:]
	d.sending = true
	dur, _ := d.link.TransferTime(c.bytes)
	s.push(event{at: s.now + dur, kind: evArrive, dev: dev, chunk: c})
}

// arrive lands a chunk at the server: the shared admission controller
// charges it and decides — FIFO sheds whatever arrives while over the
// high-water marks; utility sheds lowest-gain uploads first.
func (s *scenarioState) arrive(c *chunk) {
	d := s.devices[c.client]
	d.sending = false
	cr := &s.clients[c.client]
	cr.Arrived++

	tkt := s.adm.Charge(int64(c.bytes))
	if s.adm.Admit(tkt, c.gain) {
		c.ticket = tkt
		s.serverQueue = append(s.serverQueue, c)
		if !s.serving {
			s.startService()
		}
	} else {
		tkt.Release()
		cr.ShedChunks++
		cr.ShedBytes += int64(c.bytes)
		s.tel.Counter("sim.scenario.shed").Inc()
	}
	if len(d.queue) > 0 {
		s.startSend(c.client)
	}
}

func (s *scenarioState) startService() {
	s.serving = true
	c := s.serverQueue[0]
	dur := time.Duration(float64(c.bytes) * 8 / s.cfg.ServiceBps * float64(time.Second))
	s.push(event{at: s.now + dur, kind: evServed, chunk: c})
}

// served completes a chunk: its admission ticket is released and the
// upload is applied to the real server, making it "server-visible" —
// the moment the freshness metric closes.
func (s *scenarioState) served(c *chunk) {
	s.serverQueue = s.serverQueue[1:]
	s.serving = false
	c.ticket.Release()
	// An in-memory server without a WAL refuses an inline upload only
	// through a bug.
	if _, err := s.srv.UploadItems(0, []server.UploadItem{{Meta: server.UploadMeta{
		GroupID: int64(c.cell),
		Lat:     float64(c.cell / 64),
		Lon:     float64(c.cell % 64),
		Bytes:   c.bytes,
		Gain:    c.gain,
	}}}); err != nil {
		panic(fmt.Sprintf("sim: upload: %v", err))
	}
	cr := &s.clients[c.client]
	cr.ServedChunks++
	cr.ServedBytes += int64(c.bytes)
	ms := float64(s.now-c.captured) / float64(time.Millisecond)
	s.freshness[c.client] = append(s.freshness[c.client], ms)
	s.global.Observe(ms)
	s.tel.Counter("sim.scenario.served").Inc()
	if len(s.serverQueue) > 0 {
		s.startService()
	}
}

func (s *scenarioState) report() *ScenarioReport {
	r := &ScenarioReport{
		Seed:       s.cfg.Seed,
		Policy:     string(s.adm.Policy()),
		Devices:    s.cfg.Devices,
		DurationMs: float64(s.cfg.Duration) / float64(time.Millisecond),
		EndMs:      float64(s.now) / float64(time.Millisecond),
	}
	served := make([]float64, len(s.clients))
	for i := range s.clients {
		cr := &s.clients[i]
		if cr.Arrived > 0 {
			cr.ShedRate = float64(cr.ShedChunks) / float64(cr.Arrived)
		}
		cr.FreshnessP50Ms = metrics.Quantile(s.freshness[i], 0.5)
		cr.FreshnessP99Ms = metrics.Quantile(s.freshness[i], 0.99)
		r.CapturedChunks += cr.CapturedChunks
		r.CapturedBytes += cr.CapturedBytes
		r.DeviceDropped += cr.DeviceDropped
		r.Arrived += cr.Arrived
		r.ServedChunks += cr.ServedChunks
		r.ServedBytes += cr.ServedBytes
		r.ShedChunks += cr.ShedChunks
		r.ShedBytes += cr.ShedBytes
		served[i] = float64(cr.ServedBytes)
	}
	if r.Arrived > 0 {
		r.ShedRate = float64(r.ShedChunks) / float64(r.Arrived)
	}
	r.FreshnessP50Ms = s.global.Quantile(0.5)
	r.FreshnessP99Ms = s.global.Quantile(0.99)
	r.JainServedBytes = metrics.JainIndex(served)
	r.CellsCaptured = len(s.cellsSeen)
	cellsServed := make(map[int64]struct{})
	for _, m := range s.srv.UploadedMetas() {
		cellsServed[m.GroupID] = struct{}{}
	}
	r.CellsServed = len(cellsServed)
	if r.CellsCaptured > 0 {
		r.Coverage = float64(r.CellsServed) / float64(r.CellsCaptured)
	}
	st := s.srv.Stats()
	r.ServerImages = st.Images
	r.ServerBytes = st.BytesReceived
	r.Clients = s.clients
	return r
}

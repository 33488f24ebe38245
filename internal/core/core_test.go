package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/features"
	"bees/internal/netsim"
	"bees/internal/server"
)

func newTestDevice() *Device {
	return NewDevice(nil, netsim.NewLink(256000), energy.DefaultModel())
}

// seedServer inserts the batch's server twins so the cross-batch
// redundancy ratio takes effect.
func seedServer(srv *server.Server, d *dataset.DisasterBatch) {
	cfg := features.DefaultConfig()
	for _, tw := range d.ServerTwins {
		set := features.ExtractORB(tw.Render(), cfg)
		srv.SeedIndex(set, server.UploadMeta{GroupID: tw.GroupID})
		tw.Free()
	}
}

func TestEACBounds(t *testing.T) {
	tests := []struct {
		ebat, want float64
	}{
		{1, 0}, {0.5, 0.2}, {0.05, 0.38}, {0, 0.4}, {-1, 0.4}, {2, 0},
	}
	for _, tc := range tests {
		if got := EAC(tc.ebat); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("EAC(%v) = %v, want %v", tc.ebat, got, tc.want)
		}
	}
}

func TestEDRBounds(t *testing.T) {
	tests := []struct {
		ebat, want float64
	}{
		{1, 0.019}, {0.5, 0.016}, {0, 0.013}, {-1, 0.013}, {2, 0.019},
	}
	for _, tc := range tests {
		if got := EDR(tc.ebat); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("EDR(%v) = %v, want %v", tc.ebat, got, tc.want)
		}
	}
	if SSMMThreshold(0.7) != EDR(0.7) {
		t.Fatal("SSMM threshold must equal EDR (paper parameters)")
	}
}

func TestEAUBounds(t *testing.T) {
	tests := []struct {
		ebat, want float64
	}{
		{1, 0}, {0.5, 0.4}, {0.05, 0.76}, {0, 0.8},
	}
	for _, tc := range tests {
		if got := EAU(tc.ebat); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("EAU(%v) = %v, want %v", tc.ebat, got, tc.want)
		}
	}
}

func TestDeviceTransmitAccounting(t *testing.T) {
	dev := newTestDevice()
	before := dev.Battery.Ebat()
	dur := dev.Transmit(32000, energy.CatImageTx) // 1 s at 256 kbps
	if math.Abs(dur.Seconds()-1) > 1e-9 {
		t.Fatalf("airtime = %v, want 1s", dur)
	}
	if dev.Clock.Now() != dur {
		t.Fatal("clock not advanced by airtime")
	}
	wantJ := dev.Model.RadioTxPowerW * 1.0
	if got := (before - dev.Battery.Ebat()) * energy.DefaultCapacityJ; math.Abs(got-wantJ) > 1e-9 {
		t.Fatalf("drained %v J, want %v", got, wantJ)
	}
	if dev.Meter.Get(energy.CatImageTx) == 0 {
		t.Fatal("meter did not record the transmit")
	}
}

func TestDeviceComputeAdvancesClock(t *testing.T) {
	dev := newTestDevice()
	dur := dev.Compute(5, energy.CatExtract)
	want := time.Duration(5 / dev.Model.CPUPowerW * float64(time.Second))
	if dur != want || dev.Clock.Now() != want {
		t.Fatalf("compute time %v, want %v", dur, want)
	}
}

func TestDeviceIdleDrainsScreen(t *testing.T) {
	dev := newTestDevice()
	dev.Idle(20 * time.Minute)
	want := dev.Model.ScreenPowerW * 1200
	if got := dev.Meter.Get(energy.CatScreen); math.Abs(got-want) > 1e-9 {
		t.Fatalf("screen drain %v, want %v", got, want)
	}
	if dev.Clock.Now() != 20*time.Minute {
		t.Fatal("idle did not advance clock")
	}
}

func TestDeviceDefaults(t *testing.T) {
	dev := NewDevice(nil, nil, energy.DefaultModel())
	if dev.Battery == nil || dev.Link == nil || dev.Clock == nil || dev.Meter == nil {
		t.Fatal("NewDevice must default nil components")
	}
	if dev.Battery.Ebat() != 1 {
		t.Fatal("default battery should be full")
	}
}

func TestPipelineEmptyBatch(t *testing.T) {
	p := New(DefaultConfig())
	r := p.ProcessBatch(newTestDevice(), server.NewDefault(), nil)
	if r.Total != 0 || r.Uploaded != 0 || r.TotalBytes() != 0 {
		t.Fatalf("empty batch report: %+v", r)
	}
}

func TestPipelineName(t *testing.T) {
	if New(DefaultConfig()).Name() != "BEES" {
		t.Fatal("adaptive pipeline should be BEES")
	}
	cfg := DefaultConfig()
	cfg.Adaptive = false
	if New(cfg).Name() != "BEES-EA" {
		t.Fatal("non-adaptive pipeline should be BEES-EA")
	}
}

func TestPipelineEliminatesInBatchDuplicates(t *testing.T) {
	d := dataset.NewDisasterBatch(100, 30, 6, 0)
	p := New(DefaultConfig())
	r := p.ProcessBatch(newTestDevice(), server.NewDefault(), d.Batch)
	if r.CrossEliminated != 0 {
		t.Fatalf("no server twins seeded, yet %d cross-eliminated", r.CrossEliminated)
	}
	if r.InBatchEliminated < 4 || r.InBatchEliminated > 8 {
		t.Fatalf("in-batch eliminated = %d, want ~6", r.InBatchEliminated)
	}
	if r.Uploaded != r.Total-r.CrossEliminated-r.InBatchEliminated {
		t.Fatalf("upload count inconsistent: %+v", r)
	}
}

func TestPipelineEliminatesCrossBatchRedundancy(t *testing.T) {
	d := dataset.NewDisasterBatch(101, 40, 0, 0.5)
	srv := server.NewDefault()
	seedServer(srv, d)
	p := New(DefaultConfig())
	r := p.ProcessBatch(newTestDevice(), srv, d.Batch)
	if r.CrossEliminated < 16 || r.CrossEliminated > 24 {
		t.Fatalf("cross-eliminated = %d, want ~20", r.CrossEliminated)
	}
}

func TestPipelineDisableInBatch(t *testing.T) {
	d := dataset.NewDisasterBatch(102, 30, 6, 0)
	cfg := DefaultConfig()
	cfg.DisableInBatch = true
	r := New(cfg).ProcessBatch(newTestDevice(), server.NewDefault(), d.Batch)
	if r.InBatchEliminated != 0 {
		t.Fatalf("IBRD disabled but eliminated %d", r.InBatchEliminated)
	}
	if r.Uploaded != 30 {
		t.Fatalf("uploaded %d, want all 30", r.Uploaded)
	}
}

func TestPipelineUploadsCompressed(t *testing.T) {
	d := dataset.NewDisasterBatch(103, 10, 0, 0)
	r := New(DefaultConfig()).ProcessBatch(newTestDevice(), server.NewDefault(), d.Batch)
	// Quality compression at 0.85 must shrink uploads far below the
	// nominal ~700 KB per image.
	avg := r.ImageBytes / r.Uploaded
	if avg > 400*1024 {
		t.Fatalf("average uploaded image = %d bytes; quality compression ineffective", avg)
	}
	if avg < 10*1024 {
		t.Fatalf("average uploaded image = %d bytes; unrealistically small", avg)
	}
}

func TestPipelineLowBatteryUploadsSmallerImages(t *testing.T) {
	mk := func(ebat float64) int {
		d := dataset.NewDisasterBatch(104, 10, 0, 0)
		dev := newTestDevice()
		dev.Battery.SetEbat(ebat)
		r := New(DefaultConfig()).ProcessBatch(dev, server.NewDefault(), d.Batch)
		if r.Uploaded == 0 {
			t.Fatal("nothing uploaded")
		}
		return r.ImageBytes / r.Uploaded
	}
	full := mk(1.0)
	low := mk(0.1)
	if low >= full/2 {
		t.Fatalf("EAU ineffective: low-battery avg %d vs full %d", low, full)
	}
}

func TestPipelineLowBatteryExtractionCheaper(t *testing.T) {
	mk := func(ebat float64) float64 {
		d := dataset.NewDisasterBatch(105, 10, 0, 0)
		dev := newTestDevice()
		dev.Battery.SetEbat(ebat)
		r := New(DefaultConfig()).ProcessBatch(dev, server.NewDefault(), d.Batch)
		return r.Energy.Get(energy.CatExtract)
	}
	if low, full := mk(0.1), mk(1.0); low >= full {
		t.Fatalf("EAC ineffective: extraction %v at low battery vs %v full", low, full)
	}
}

func TestPipelineNonAdaptiveIgnoresBattery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = false
	mk := func(ebat float64) int {
		d := dataset.NewDisasterBatch(106, 8, 0, 0)
		dev := newTestDevice()
		dev.Battery.SetEbat(ebat)
		r := New(cfg).ProcessBatch(dev, server.NewDefault(), d.Batch)
		return r.ImageBytes
	}
	if full, low := mk(1.0), mk(0.1); full != low {
		t.Fatalf("BEES-EA image bytes differ across battery levels: %d vs %d", full, low)
	}
}

func TestPipelineReportInternallyConsistent(t *testing.T) {
	d := dataset.NewDisasterBatch(107, 25, 5, 0.4)
	srv := server.NewDefault()
	seedServer(srv, d)
	dev := newTestDevice()
	r := New(DefaultConfig()).ProcessBatch(dev, srv, d.Batch)
	if r.Total != 25 {
		t.Fatalf("total = %d", r.Total)
	}
	if r.Uploaded+r.CrossEliminated+r.InBatchEliminated != r.Total {
		t.Fatalf("counts do not add up: %+v", r)
	}
	if r.Delay <= 0 {
		t.Fatal("delay not recorded")
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("energy not recorded")
	}
	if got := srv.Stats().Images; got != r.Uploaded {
		t.Fatalf("server stored %d images, report says %d", got, r.Uploaded)
	}
	if r.EbatAfter >= 1 {
		t.Fatal("battery should have drained")
	}
	if r.AvgDelayPerImage() != r.Delay/25 {
		t.Fatal("AvgDelayPerImage inconsistent")
	}
}

func TestPipelineServerIndexGrowsForNextBatch(t *testing.T) {
	// A second identical-content batch must be detected as cross-batch
	// redundant because the first batch's features were indexed.
	d1 := dataset.NewDisasterBatch(108, 12, 0, 0)
	srv := server.NewDefault()
	p := New(DefaultConfig())
	r1 := p.ProcessBatch(newTestDevice(), srv, d1.Batch)
	if r1.Uploaded == 0 {
		t.Fatal("first batch uploaded nothing")
	}
	r2 := p.ProcessBatch(newTestDevice(), srv, d1.Batch)
	if r2.CrossEliminated < 10 {
		t.Fatalf("re-sent batch only %d/12 cross-eliminated", r2.CrossEliminated)
	}
}

func TestBatchReportTotalBytes(t *testing.T) {
	r := BatchReport{FeatureBytes: 10, ImageBytes: 100, FeedbackBytes: 5}
	if r.TotalBytes() != 115 {
		t.Fatalf("TotalBytes = %d", r.TotalBytes())
	}
	if (BatchReport{}).AvgDelayPerImage() != 0 {
		t.Fatal("empty report AvgDelayPerImage should be 0")
	}
}

func TestCapSet(t *testing.T) {
	s := &features.BinarySet{
		Descriptors: make([]features.Descriptor, 10),
		Keypoints:   make([]features.Keypoint, 10),
	}
	if capSet(s, 5).Len() != 5 {
		t.Fatal("capSet did not truncate")
	}
	if capSet(s, 20) != s {
		t.Fatal("capSet should return the original when under the cap")
	}
}

func TestConfigRepair(t *testing.T) {
	p := New(Config{Adaptive: true})
	if p.cfg.HammingMax <= 0 || p.cfg.QualityProportion <= 0 ||
		p.cfg.GraphDescriptors <= 0 || p.cfg.Extraction.MaxFeatures <= 0 {
		t.Fatalf("zero config not repaired: %+v", p.cfg)
	}
}

func TestEAASMonotoneQuick(t *testing.T) {
	// All three knobs must move monotonically as the battery drains:
	// more compression, lower threshold.
	f := func(a, b uint8) bool {
		lo, hi := float64(a)/255, float64(b)/255
		if lo > hi {
			lo, hi = hi, lo
		}
		return EAC(lo) >= EAC(hi) && EDR(lo) <= EDR(hi) && EAU(lo) >= EAU(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceReceiveAccounting(t *testing.T) {
	dev := newTestDevice()
	before := dev.Battery.Ebat()
	dur := dev.Receive(32000, energy.CatRx) // 1s at 256 kbps
	if math.Abs(dur.Seconds()-1) > 1e-9 {
		t.Fatalf("rx airtime = %v", dur)
	}
	wantJ := dev.Model.RadioRxPowerW * 1.0
	if got := (before - dev.Battery.Ebat()) * energy.DefaultCapacityJ; math.Abs(got-wantJ) > 1e-9 {
		t.Fatalf("rx drained %v J, want %v", got, wantJ)
	}
}

func TestBatchAccountingIsolatesBatches(t *testing.T) {
	dev := newTestDevice()
	srv := server.NewDefault()
	p := New(DefaultConfig())
	d1 := dataset.NewDisasterBatch(130, 6, 0, 0)
	r1 := p.ProcessBatch(dev, srv, d1.Batch)
	d2 := dataset.NewDisasterBatch(131, 6, 0, 0)
	r2 := p.ProcessBatch(dev, srv, d2.Batch)
	// Each report must contain only its own batch's deltas, and the
	// device meter the sum.
	total := r1.Energy.Total() + r2.Energy.Total()
	if math.Abs(total-dev.Meter.Total()) > 1e-6 {
		t.Fatalf("batch energies %v do not sum to device total %v", total, dev.Meter.Total())
	}
	if r2.Delay <= 0 || r2.Delay > dev.Clock.Now() {
		t.Fatalf("second batch delay %v inconsistent with clock %v", r2.Delay, dev.Clock.Now())
	}
}

func TestExtractAllMatchesSequential(t *testing.T) {
	d := dataset.NewDisasterBatch(132, 12, 0, 0)
	cfg := features.DefaultConfig()
	parallel := ExtractAll(d.Batch, 0.1, cfg)
	for i, img := range d.Batch {
		img.Free()
		want := extractOne(img, 0.1, cfg)
		if parallel[i].Len() != want.Len() {
			t.Fatalf("image %d: parallel %d descriptors, sequential %d",
				i, parallel[i].Len(), want.Len())
		}
		for j := range want.Descriptors {
			if parallel[i].Descriptors[j] != want.Descriptors[j] {
				t.Fatalf("image %d descriptor %d differs", i, j)
			}
		}
	}
}

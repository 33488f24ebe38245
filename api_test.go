package bees_test

import (
	"testing"
	"time"

	"bees"
	"bees/internal/client"
	"bees/internal/netsim"
	"bees/internal/server"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	srv := bees.NewServer()
	dev := bees.NewDevice(bees.WithBitrate(256_000))
	scheme := bees.New()
	d := bees.NewDisasterBatch(1, 20, 2, 0.5)
	bees.SeedServer(srv, d)
	report := scheme.ProcessBatch(dev, srv, d.Batch)
	if report.Total != 20 {
		t.Fatalf("total = %d", report.Total)
	}
	if report.Uploaded == 0 || report.Uploaded == 20 {
		t.Fatalf("expected partial elimination, uploaded %d", report.Uploaded)
	}
	if report.CrossEliminated == 0 {
		t.Fatal("seeded twins were not detected")
	}
	if report.Energy.Total() <= 0 || report.TotalBytes() <= 0 {
		t.Fatal("accounting missing")
	}
}

func TestPublicAPISchemes(t *testing.T) {
	names := map[string]bees.Scheme{
		"Direct Upload": bees.NewDirect(),
		"SmartEye":      bees.NewSmartEye(),
		"MRC":           bees.NewMRC(),
		"BEES":          bees.New(),
		"BEES-EA":       bees.NewBEESEA(),
	}
	for want, s := range names {
		if got := s.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestPublicAPIDeviceOptions(t *testing.T) {
	dev := bees.NewDevice(
		bees.WithBatteryJ(1000),
		bees.WithFluctuatingLink(0, 512_000, 7),
	)
	if got := dev.Battery.Drain(2000); got != 1000 {
		t.Fatalf("a full battery drained %v J, want its 1000 J capacity", got)
	}
	want := netsim.NewFluctuatingLink(0, 512_000, 7)
	for i := 0; i < 8; i++ {
		if got, w := dev.Link.Rate(), want.Rate(); got != w {
			t.Fatalf("rate %d = %v, want %v from a 0–512 kbps link seeded 7", i, got, w)
		}
	}
	model := bees.NewDevice(bees.WithCostModel(bees.CostModel{
		RadioTxPowerW: 2, CPUPowerW: 1, ScreenPowerW: 1,
	}))
	if model.Model.RadioTxPowerW != 2 {
		t.Fatal("cost model override lost")
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	if imgs := bees.NewKentucky(2, 3); len(imgs) != 12 {
		t.Fatalf("Kentucky images = %d", len(imgs))
	}
	if p := bees.NewParis(3, 50, 20); len(p.Images) != 50 {
		t.Fatalf("Paris images = %d", len(p.Images))
	}
}

func TestPublicAPITCP(t *testing.T) {
	srv := bees.NewServer()
	tcp, addr, err := bees.ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	c, err := bees.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	item := bees.UploadItem{Meta: server.UploadMeta{GroupID: 1, Bytes: 4}}
	if _, err := client.NewRemoteServer(c).UploadItems(c.NewNonce(), []bees.UploadItem{item}); err != nil {
		t.Fatal(err)
	}
	images, bytes, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if images != 1 || bytes != 4 {
		t.Fatalf("stats: %d images, %d bytes", images, bytes)
	}
}

func TestPublicAPILifetimeQuick(t *testing.T) {
	res := bees.RunLifetime(bees.NewDirect(), bees.LifetimeConfig{
		Seed: 4, Groups: 10, PerGroup: 4, Redundancy: 0.5,
		Interval: 2 * time.Minute, BitrateBps: 256_000, BatteryJ: 1200,
	})
	if res.GroupsUploaded == 0 || res.Lifetime == 0 {
		t.Fatalf("lifetime run empty: %+v", res)
	}
}

func TestPublicAPIGilbertLinkAndPhotoNet(t *testing.T) {
	dev := bees.NewDevice(bees.WithGilbertLink(512_000, 32_000, 0.1, 0.3, 1))
	want := netsim.NewGilbertLink(512_000, 32_000, 0.1, 0.3, 1)
	for i := 0; i < 16; i++ {
		if got, w := dev.Link.Rate(), want.Rate(); got != w {
			t.Fatalf("rate %d = %v, want %v from the Gilbert chain", i, got, w)
		}
	}
	srv := bees.NewServer()
	d := bees.NewDisasterBatch(5, 10, 2, 0)
	r := bees.NewPhotoNet().ProcessBatch(dev, srv, d.Batch)
	if r.Scheme != "PhotoNet" || r.Total != 10 {
		t.Fatalf("PhotoNet via public API broken: %+v", r)
	}
}

func TestPublicAPISummarizeBatch(t *testing.T) {
	d := bees.NewDisasterBatch(6, 16, 8, 0)
	selected, clusters := bees.SummarizeBatch(d.Batch, 1.0)
	if len(selected) == 0 || len(selected) >= 16 {
		t.Fatalf("summary size %d implausible", len(selected))
	}
	if len(clusters) != len(selected) {
		t.Fatalf("budget %d != clusters %d", len(selected), len(clusters))
	}
}

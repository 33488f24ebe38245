package harness

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bees/internal/sim"
)

var updateFigures = flag.Bool("update", false, "rewrite this run's sections of testdata/figures.golden")

const figuresGolden = "testdata/figures.golden"

// checkFigure compares tbl's rendering with the section called name of
// testdata/figures.golden, so a change that moves any number of a paper
// table fails even when the table's shape anchors still hold. Each
// section starts with a "-- name --" line. Regenerate the sections of
// the tests that ran with
//
//	go test ./internal/harness -update
func checkFigure(t *testing.T, name string, tbl *Table) {
	t.Helper()
	got := tbl.String()
	sections, err := readFigures()
	if err != nil && !(*updateFigures && os.IsNotExist(err)) {
		t.Fatalf("read %s (run with -update to create): %v", figuresGolden, err)
	}
	if *updateFigures {
		sections[name] = got
		if err := writeFigures(sections); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := sections[name]
	if !ok {
		t.Fatalf("%s has no section %q (run with -update to add it)", figuresGolden, name)
	}
	if got != want {
		t.Fatalf("%s drifted from %s (rerun with -update if intended):\ngot:\n%swant:\n%s", name, figuresGolden, got, want)
	}
}

// readFigures parses the golden file into name -> rendered table.
func readFigures() (map[string]string, error) {
	sections := map[string]string{}
	data, err := os.ReadFile(figuresGolden)
	if err != nil {
		return sections, err
	}
	name := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --\n") {
			name = strings.TrimSuffix(strings.TrimPrefix(line, "-- "), " --\n")
			sections[name] = ""
			continue
		}
		sections[name] += line
	}
	return sections, nil
}

// writeFigures writes sections in name order.
func writeFigures(sections map[string]string) error {
	names := make([]string, 0, len(sections))
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString("-- " + name + " --\n" + sections[name])
	}
	if err := os.MkdirAll(filepath.Dir(figuresGolden), 0o755); err != nil {
		return err
	}
	return os.WriteFile(figuresGolden, []byte(sb.String()), 0o644)
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Notes:  []string{"a note"},
	}
	tbl.Add("x", 1)
	tbl.Add(0.5, "yy")
	out := tbl.String()
	for _, want := range []string{"== demo ==", "a", "bb", "x", "0.500", "yy", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if pct(0.5) != "50.0%" {
		t.Fatalf("pct = %q", pct(0.5))
	}
	if kb(2048) != "2KB" {
		t.Fatalf("kb = %q", kb(2048))
	}
	if mb(3*1024*1024) != "3.00MB" {
		t.Fatalf("mb = %q", mb(3*1024*1024))
	}
}

func TestFig3ShapeAnchors(t *testing.T) {
	opts := Fig3Options{
		Seed:        31,
		Groups:      40,
		Queries:     20,
		Proportions: []float64{0, 0.2, 0.4, 0.8},
		TopK:        4,
	}
	res := RunFig3(opts)
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	// Paper anchor: precision at proportion 0.4 stays above 90% of the
	// uncompressed precision; precision at 0.8 degrades well below it.
	if res[2].NormalizedPrecision < 0.85 {
		t.Fatalf("precision at 0.4 = %v of baseline, want >= 0.85", res[2].NormalizedPrecision)
	}
	if res[3].NormalizedPrecision >= res[1].NormalizedPrecision {
		t.Fatalf("precision should degrade with compression: %v vs %v",
			res[3].NormalizedPrecision, res[1].NormalizedPrecision)
	}
	// Energy decreases monotonically.
	for i := 1; i < len(res); i++ {
		if res[i].NormalizedEnergy >= res[i-1].NormalizedEnergy {
			t.Fatal("extraction energy must fall with compression")
		}
	}
	tbl := Fig3Table(res)
	if !strings.Contains(tbl.String(), "Fig. 3") {
		t.Fatal("table title missing")
	}
	checkFigure(t, "fig3", tbl)
}

func TestFig4ShapeAnchors(t *testing.T) {
	res := RunFig4(Fig4Options{Seed: 41, Pairs: 80,
		Thresholds: []float64{0.01, 0.013, 0.019, 0.1}})
	if len(res.Similar) != 80 || len(res.Dissimilar) != 80 {
		t.Fatalf("sample sizes wrong: %d/%d", len(res.Similar), len(res.Dissimilar))
	}
	at := func(th float64) (float64, float64) {
		for _, p := range res.Points {
			if p.Threshold == th {
				return p.TPR, p.FPR
			}
		}
		t.Fatalf("threshold %v missing", th)
		return 0, 0
	}
	tpr01, fpr01 := at(0.01)
	tpr013, fpr013 := at(0.013)
	// Paper anchors: at 0.01 TPR ~95%, FPR ~26%; at 0.013 TPR ~90%, FPR
	// ~10%. Accept generous bands at this scale.
	if tpr01 < 0.9 {
		t.Fatalf("TPR at 0.01 = %v, want >= 0.9", tpr01)
	}
	if fpr01 < 0.05 || fpr01 > 0.45 {
		t.Fatalf("FPR at 0.01 = %v, want a nonzero but minor tail", fpr01)
	}
	if fpr013 >= fpr01 && fpr01 != 0 {
		t.Fatal("FPR must fall as the threshold rises")
	}
	if tpr013 > tpr01 {
		t.Fatal("TPR must not rise with the threshold")
	}
	checkFigure(t, "fig4", Fig4Table(res))
}

func TestFig5ShapeAnchors(t *testing.T) {
	opts := Fig5Options{
		Seed:        51,
		ImageCounts: []int{10, 20},
		Proportions: []float64{0.5, 0.85, 0.95},
	}
	qual := RunFig5Quality(opts)
	resl := RunFig5Resolution(opts)
	if len(qual) != 6 || len(resl) != 6 {
		t.Fatalf("cell counts: %d, %d", len(qual), len(resl))
	}
	// Bytes fall with proportion; SSIM falls too; 20 images cost more
	// than 10.
	for i := 2; i < len(qual); i += 2 {
		if qual[i].Bytes >= qual[i-2].Bytes {
			t.Fatal("quality-compressed bytes must fall with proportion")
		}
		if qual[i].SSIM >= qual[i-2].SSIM {
			t.Fatal("SSIM must fall with proportion")
		}
		if resl[i].Bytes >= resl[i-2].Bytes {
			t.Fatal("resolution-compressed bytes must fall with proportion")
		}
	}
	if qual[1].Bytes <= qual[0].Bytes {
		t.Fatal("more images must cost more bytes")
	}
	checkFigure(t, "fig5a", Fig5Table(qual, true))
	checkFigure(t, "fig5b", Fig5Table(resl, false))
}

func TestFig6ShapeAnchors(t *testing.T) {
	res := RunFig6(Fig6Options{
		Seed: 61, Groups: 30, Queries: 15,
		Ebats: []float64{1.0, 0.1}, TopK: 4, FloatCap: 48,
	})
	byName := map[string]Fig6Result{}
	for _, r := range res {
		byName[r.Scheme] = r
	}
	sift := byName["SIFT"]
	if sift.Precision <= 0.5 {
		t.Fatalf("SIFT precision %v implausibly low", sift.Precision)
	}
	if sift.Normalized != 1 {
		t.Fatal("SIFT must normalize to 1")
	}
	// Paper: BEES(100) >= 90.3% of SIFT, BEES(10) >= 84.9%.
	if b := byName["BEES(100)"]; b.Normalized < 0.8 {
		t.Fatalf("BEES(100) = %v of SIFT, want >= 0.8", b.Normalized)
	}
	if b := byName["BEES(10)"]; b.Normalized < 0.7 {
		t.Fatalf("BEES(10) = %v of SIFT, want >= 0.7", b.Normalized)
	}
	if byName["BEES(10)"].Normalized > byName["BEES(100)"].Normalized+0.05 {
		t.Fatal("precision should not improve at low battery")
	}
	checkFigure(t, "fig6", Fig6Table(res))
}

func TestTable1ShapeAnchors(t *testing.T) {
	rows := RunTable1(Table1Options{
		Seed: 71, Sample: 12, KentuckyImages: 10200, ParisImages: 501356,
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Ordering: SIFT > PCA-SIFT > ORB; ORB about an order smaller
		// than PCA-SIFT and roughly two orders smaller than SIFT.
		if !(r.SIFTBytes > r.PCASBytes && r.PCASBytes > r.ORBBytes) {
			t.Fatalf("space ordering violated: %+v", r)
		}
		if r.ORBPct > 10 {
			t.Fatalf("ORB space = %.2f%% of SIFT, want single digits", r.ORBPct)
		}
		if r.PCASPct < 20 || r.PCASPct > 35 {
			t.Fatalf("PCA-SIFT space = %.2f%% of SIFT, want ~28%%", r.PCASPct)
		}
	}
	checkFigure(t, "table1", Table1Table(rows))
}

func TestBatchStudyAndFig7Fig10Tables(t *testing.T) {
	cells := RunBatchStudy(BatchStudyOptions{
		Seed: 72, BatchSize: 20, InBatchDup: 2,
		Ratios: []float64{0, 0.5}, BitrateBps: 256000, Ebat: 1,
	}, StudySchemes())
	if len(cells) != 8 {
		t.Fatalf("got %d cells", len(cells))
	}
	get := func(scheme string, ratio float64) BatchStudyCell {
		for _, c := range cells {
			if c.Scheme == scheme && c.Ratio == ratio {
				return c
			}
		}
		t.Fatalf("missing cell %s@%v", scheme, ratio)
		return BatchStudyCell{}
	}
	// Energy falls with redundancy for the feature schemes.
	for _, s := range []string{"SmartEye", "MRC", "BEES"} {
		if get(s, 0.5).EnergyJ >= get(s, 0).EnergyJ {
			t.Fatalf("%s energy should fall with redundancy", s)
		}
	}
	// Fig. 10 anchor: BEES bandwidth well below SmartEye.
	if b, s := get("BEES", 0.5).Bytes, get("SmartEye", 0.5).Bytes; float64(b) > 0.45*float64(s) {
		t.Fatalf("BEES bytes %d not well below SmartEye %d", b, s)
	}
	checkFigure(t, "fig7", Fig7Table(cells))
	checkFigure(t, "fig10", Fig10Table(cells))
}

func TestFig8ShapeAnchors(t *testing.T) {
	rows := RunFig8(Fig8Options{
		Seed: 81, BatchSize: 20, InBatchDup: 2, CrossRatio: 0.25,
		Ebats: []float64{1.0, 0.4, 0.1}, BitrateBps: 256000,
	})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Extraction and image-upload energy fall with Ebat; feature upload
	// stays comparatively small (paper: "lightweight ORB features").
	for i := 1; i < len(rows); i++ {
		if rows[i].ExtractJ >= rows[i-1].ExtractJ {
			t.Fatal("extraction energy must fall with Ebat")
		}
		if rows[i].ImageTxJ >= rows[i-1].ImageTxJ {
			t.Fatal("image upload energy must fall with Ebat")
		}
	}
	for _, r := range rows {
		if r.FeatureTxJ > r.TotalJ/2 {
			t.Fatalf("feature upload dominates at Ebat=%v: %+v", r.Ebat, r)
		}
	}
	checkFigure(t, "fig8", Fig8Table(rows))
}

func TestFig9RunsAndOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime study is slow")
	}
	rows := RunFig9(Fig9Options{Lifetime: sim.LifetimeConfig{
		Seed: 91, Groups: 60, PerGroup: 6, Redundancy: 0.5,
		Interval: 3 * time.Minute, BitrateBps: 256000, BatteryJ: 4000,
	}})
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	if byName["BEES"].Lifetime < byName["Direct Upload"].Lifetime {
		t.Fatal("BEES must outlast Direct")
	}
	if byName["BEES"].ExtensionPct <= 0 {
		t.Fatal("BEES extension must be positive")
	}
	checkFigure(t, "fig9", Fig9Table(rows))
}

func TestFig11ShapeAnchors(t *testing.T) {
	cells := RunFig11(Fig11Options{
		Seed: 111, BatchSize: 20, InBatchDup: 2, CrossRatio: 0.5,
		BitratesBps: []float64{128000, 512000},
	})
	if len(cells) != 8 {
		t.Fatalf("got %d cells", len(cells))
	}
	get := func(scheme string, bps float64) time.Duration {
		for _, c := range cells {
			if c.Scheme == scheme && c.BitrateBps == bps {
				return c.AvgDelay
			}
		}
		t.Fatalf("missing %s@%v", scheme, bps)
		return 0
	}
	// Delay falls with bitrate; BEES far below Direct at every bitrate.
	for _, s := range []string{"Direct Upload", "BEES"} {
		if get(s, 512000) >= get(s, 128000) {
			t.Fatalf("%s delay should fall with bitrate", s)
		}
	}
	for _, bps := range []float64{128000, 512000} {
		if d, b := get("Direct Upload", bps), get("BEES", bps); float64(b) > 0.35*float64(d) {
			t.Fatalf("BEES delay %v not well below Direct %v at %v", b, d, bps)
		}
	}
	checkFigure(t, "fig11", Fig11Table(cells))
}

func TestFig12RunsAndOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage study is slow")
	}
	rows := RunFig12(Fig12Options{Coverage: sim.CoverageConfig{
		Seed: 121, Phones: 3, PerGroup: 6, Images: 300, Locations: 110,
		Interval: 3 * time.Minute, BitrateBps: 256000, BatteryJ: 2000,
	}})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[1].ImagesVsDirect <= 0 || rows[1].LocationsVsDirect <= 0 {
		t.Fatalf("BEES must beat Direct on both metrics: %+v", rows[1])
	}
	checkFigure(t, "fig12", Fig12Table(rows))
}

func TestAblationBudget(t *testing.T) {
	rows := RunAblationBudget(500, 20, []int{0, 4, 8})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// The adaptive budget must track the true unique count within a
		// small margin; the fixed budget is constant.
		if diff := r.AdaptiveSel - r.TrueUnique; diff < -3 || diff > 3 {
			t.Fatalf("adaptive selection %d far from true unique %d", r.AdaptiveSel, r.TrueUnique)
		}
		if r.FixedSel > r.FixedBudget {
			t.Fatalf("fixed budget violated: %+v", r)
		}
	}
	checkFigure(t, "ablation_budget", AblationBudgetTable(rows))
}

func TestAblationGreedy(t *testing.T) {
	rows := RunAblationGreedy(501, 15)
	for _, r := range rows {
		if !r.GuaranteeMet {
			t.Fatalf("greedy guarantee violated: %+v", r)
		}
		if !r.LazyMatches {
			t.Fatalf("lazy greedy diverged from naive: %+v", r)
		}
	}
	checkFigure(t, "ablation_greedy", AblationGreedyTable(rows))
}

func TestAblationIndex(t *testing.T) {
	r := RunAblationIndex(502, 25, 12)
	if r.Agreement < 0.8 {
		t.Fatalf("LSH/exhaustive agreement = %v, want >= 0.8", r.Agreement)
	}
	checkFigure(t, "ablation_index", AblationIndexTable(r))
}

func TestPanicsOnBadOptions(t *testing.T) {
	cases := []func(){
		func() { RunFig3(Fig3Options{}) },
		func() { RunFig4(Fig4Options{}) },
		func() { runFig5(Fig5Options{}, true) },
		func() { RunFig6(Fig6Options{}) },
		func() { RunTable1(Table1Options{}) },
		func() { RunBatchStudy(BatchStudyOptions{}, nil) },
		func() { RunFig8(Fig8Options{}) },
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

func TestExtensionDetection(t *testing.T) {
	rows := RunExtensionDetection(DefaultDetectionOptions())
	byName := map[string]DetectionRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	bees, mrc, photonet := byName["BEES"], byName["MRC"], byName["PhotoNet"]
	// BEES must dominate: highest recall at perfect precision.
	if bees.Recall < mrc.Recall || bees.Recall < photonet.Recall {
		t.Fatalf("BEES recall %v not dominant (MRC %v, PhotoNet %v)",
			bees.Recall, mrc.Recall, photonet.Recall)
	}
	if bees.Precision < 0.95 {
		t.Fatalf("BEES precision = %v", bees.Precision)
	}
	// MRC misses in-batch duplicates: recall strictly below BEES.
	if mrc.Recall >= bees.Recall {
		t.Fatal("MRC should miss the in-batch duplicates")
	}
	// PhotoNet's metadata-only detection must show false positives
	// (colocated different scenes) — the robustness argument for local
	// features.
	if photonet.Precision >= mrc.Precision {
		t.Fatalf("PhotoNet precision %v should be below feature-based %v",
			photonet.Precision, mrc.Precision)
	}
	checkFigure(t, "detection", DetectionTable(rows))
}

func TestPanicsOnBadDetectionOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad detection options did not panic")
		}
	}()
	RunExtensionDetection(DetectionOptions{})
}

func TestAblationIBRD(t *testing.T) {
	rows := RunAblationIBRD(520, 24, []int{0, 8})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// With no in-batch duplicates IBRD contributes ~nothing; with 8 dups
	// the saving must be substantial.
	if rows[0].SavingPct > 8 {
		t.Fatalf("IBRD saved %.1f%% on a dup-free batch", rows[0].SavingPct)
	}
	if rows[1].SavingPct < 15 {
		t.Fatalf("IBRD saved only %.1f%% with 1/3 duplicates", rows[1].SavingPct)
	}
	checkFigure(t, "ablation_ibrd", AblationIBRDTable(rows))
}

func TestPanicsOnBadIBRDOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad IBRD ablation options did not panic")
		}
	}()
	RunAblationIBRD(1, 0, nil)
}

func TestCodecComparison(t *testing.T) {
	rows := RunCodecComparison(530, 6, []float64{0, 0.85})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	lossless := rows[0]
	if lossless.AvgSSIM != 1 {
		t.Fatal("lossless SSIM must be 1")
	}
	var at85 CodecRow
	for _, r := range rows[1:] {
		if r.Proportion == 0.85 {
			at85 = r
		}
	}
	if at85.AvgBytes >= lossless.AvgBytes {
		t.Fatalf("lossy@0.85 (%d) should beat lossless (%d)", at85.AvgBytes, lossless.AvgBytes)
	}
	if at85.AvgSSIM < 0.8 {
		t.Fatalf("lossy@0.85 SSIM %v too low", at85.AvgSSIM)
	}
	checkFigure(t, "codec_comparison", CodecComparisonTable(rows))
}

func TestCodecComparisonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 did not panic")
		}
	}()
	RunCodecComparison(1, 0, nil)
}

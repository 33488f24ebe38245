// Command beesctl is the BEES smartphone client: it generates a
// synthetic disaster image batch and pushes it through a chosen scheme
// to a beesd server over TCP, printing the batch report.
//
// Usage:
//
//	beesctl [-addr 127.0.0.1:7700] [-scheme bees|bees-ea|direct|smarteye|mrc]
//	        [-batch 100] [-inbatch 10] [-seed 1] [-ebat 1.0] [-bitrate 256000]
//	        [-repeat 1] [-timeout 10s] [-retries 3] [-outbox /path/to/dir]
//	        [-push-telemetry]
//
//	beesctl stats [-debug-addr 127.0.0.1:7701] [-json]
//
// Repeating the same seed demonstrates cross-batch elimination: the
// second run finds the first run's images in the server index.
//
// With -outbox (bees/bees-ea schemes only), upload chunks that exhaust
// their retries are spilled to the given directory instead of being
// dropped; chunks left over from earlier partitioned runs are replayed
// first, and anything still queued when the run ends survives on disk
// for the next invocation (see DESIGN.md, "Fault tolerance &
// overload").
//
// The run collects per-stage telemetry (spans, counters, EAAS knob
// gauges) in a local registry and, unless -push-telemetry=false, pushes
// the snapshot to beesd at the end so the server's -debug-addr endpoint
// exposes the phone-side pipeline metrics too. `beesctl stats` fetches
// that endpoint and pretty-prints it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"bees/internal/baseline"
	"bees/internal/client"
	"bees/internal/core"
	"bees/internal/dataset"
	"bees/internal/energy"
	"bees/internal/netsim"
	"bees/internal/outbox"
	"bees/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("beesctl: ")
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		if err := runStats(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:7700", "beesd server address")
		scheme  = flag.String("scheme", "bees", "bees|bees-ea|direct|smarteye|mrc")
		batch   = flag.Int("batch", 100, "batch size")
		inBatch = flag.Int("inbatch", 10, "in-batch near-duplicates")
		seed    = flag.Int64("seed", 1, "workload seed")
		ebat    = flag.Float64("ebat", 1.0, "starting battery fraction")
		bitrate = flag.Float64("bitrate", 256000, "uplink bitrate (bps)")
		gilbert = flag.Bool("gilbert", false, "bursty Gilbert-Elliott link (good=bitrate, bad=bitrate/8)")
		repeat  = flag.Int("repeat", 1, "number of batches to upload")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request deadline")
		retries = flag.Int("retries", 3, "retries per failed request (fresh connection each)")
		boxDir  = flag.String("outbox", "", "spill failed upload chunks to this directory and replay them when the link recovers (bees/bees-ea only)")
		push    = flag.Bool("push-telemetry", true, "push the run's telemetry snapshot to beesd on exit")
	)
	flag.Parse()
	if *inBatch >= *batch {
		return fmt.Errorf("-inbatch (%d) must be below -batch (%d)", *inBatch, *batch)
	}

	// One registry for the whole run: the pipeline's stage spans and the
	// client's transport counters land in the same snapshot.
	reg := telemetry.NewRegistry()
	var box *outbox.Outbox
	if *boxDir != "" {
		if *scheme != "bees" && *scheme != "bees-ea" {
			return fmt.Errorf("-outbox only applies to the bees/bees-ea schemes, not %q", *scheme)
		}
		var err error
		box, err = outbox.Open(outbox.Config{Dir: *boxDir, Telemetry: reg})
		if err != nil {
			return err
		}
		if n := box.Len(); n > 0 {
			fmt.Printf("outbox: %d chunks pending from earlier runs\n", n)
		}
	}
	s, err := pickScheme(*scheme, reg, box)
	if err != nil {
		return err
	}
	c, err := client.DialOptions(*addr, client.Options{
		DialTimeout:    5 * time.Second,
		RequestTimeout: *timeout,
		MaxRetries:     *retries,
		Telemetry:      reg,
		// With an outbox the run is useful even when beesd is away: the
		// pipeline degrades queries and spools uploads, so don't fail fast
		// on the first dial.
		LazyDial: box != nil,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	remote := client.NewRemoteServer(c)
	if box != nil && box.Len() > 0 {
		// Replay the previous run's backlog before generating new load.
		// UploadItems resumes block-wise: blocks that landed before the
		// partition are skipped, only the rest are resent, and the commit
		// dedups under the chunk's nonce.
		drainer := outbox.NewDrainer(box, func(ch *outbox.Chunk) error {
			_, err := remote.UploadItems(ch.Nonce, ch.Items)
			return err
		})
		if n, err := drainer.DrainOnce(); n > 0 || err != nil {
			fmt.Printf("outbox: replayed %d leftover chunks (%v)\n", n, errOrOK(err))
		}
	}

	link := netsim.NewLink(*bitrate)
	if *gilbert {
		link = netsim.NewGilbertLink(*bitrate, *bitrate/8, 0.1, 0.3, *seed).AsLink()
	}
	dev := core.NewDevice(nil, link, energy.DefaultModel())
	dev.Battery.SetEbat(*ebat)

	for i := 0; i < *repeat; i++ {
		d := dataset.NewDisasterBatch(*seed+int64(i), *batch, *inBatch, 0)
		r := s.ProcessBatch(dev, remote, d.Batch)
		fmt.Printf("batch %d/%d via %s\n", i+1, *repeat, r.Scheme)
		fmt.Printf("  images: %d total, %d uploaded, %d cross-eliminated, %d in-batch eliminated\n",
			r.Total, r.Uploaded, r.CrossEliminated, r.InBatchEliminated)
		fmt.Printf("  bytes: %.2f MB (features %.2f MB, images %.2f MB)\n",
			mbf(r.TotalBytes()), mbf(r.FeatureBytes), mbf(r.ImageBytes))
		fmt.Printf("  energy: %.1f J, delay: %.1fs (%.2fs/image), battery now %.1f%%\n",
			r.Energy.Total(), r.Delay.Seconds(), r.AvgDelayPerImage().Seconds(),
			100*r.EbatAfter)
		if r.Degraded > 0 {
			fmt.Printf("  degraded: %d requests exhausted their retries\n", r.Degraded)
		}
	}
	if box != nil && box.Len() > 0 {
		// The run left chunks behind (retries exhausted mid-run). Try one
		// drain pass now that the batch load is off the link; whatever
		// still fails stays on disk for the next invocation.
		drainer := outbox.NewDrainer(box, func(ch *outbox.Chunk) error {
			_, err := remote.UploadItems(ch.Nonce, ch.Items)
			return err
		})
		if n, err := drainer.DrainOnce(); n > 0 || err != nil {
			fmt.Printf("outbox: replayed %d chunks (%v)\n", n, errOrOK(err))
		}
	}
	if m := c.Metrics(); m.Retries > 0 || m.Redials > 0 || m.BusyHolds > 0 || m.BreakerTrips > 0 {
		fmt.Printf("transport: %d retries, %d redials, %d busy holds, %d breaker trips (state %s)\n",
			m.Retries, m.Redials, m.BusyHolds, m.BreakerTrips, breakerStateName(m.BreakerState))
	}
	if snap := reg.Snapshot(); snap.Counters["client.blocks.queried"] > 0 {
		fmt.Printf("blocks: %d queried, %d sent (%.2f MB), %d already on server (%.2f MB saved)\n",
			snap.Counters["client.blocks.queried"],
			snap.Counters["client.blocks.sent"], mbf(int(snap.Counters["client.blocks.sent_bytes"])),
			snap.Counters["client.blocks.skipped"], mbf(int(snap.Counters["client.blocks.skipped_bytes"])))
	}
	if box != nil {
		st := box.Stats()
		fmt.Printf("outbox: %d chunks (%d images) pending, %d spilled, %d evicted, %d replayed, %d corrupt\n",
			st.Depth, st.Items, st.Spilled, st.Evicted, st.Replayed, st.Corrupt)
	}
	if *push {
		if err := c.PushTelemetry(reg.Snapshot()); err != nil {
			log.Printf("telemetry push failed: %v", err)
		}
	}
	if err := remote.Err(); err != nil {
		return fmt.Errorf("transport errors occurred, last: %w", err)
	}
	images, bytes, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server now holds %d images (%.2f MB received)\n", images, mbf(int(bytes)))
	return nil
}

// runStats implements `beesctl stats`: fetch beesd's /debug/vars JSON
// snapshot and render it for the terminal (or dump the raw JSON).
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	debugAddr := fs.String("debug-addr", "127.0.0.1:7701", "beesd -debug-addr endpoint")
	raw := fs.Bool("json", false, "print the raw JSON snapshot instead of the rendered view")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := "http://" + *debugAddr + "/debug/vars"
	httpc := &http.Client{Timeout: 10 * time.Second}
	resp, err := httpc.Get(url)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return fmt.Errorf("read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	if *raw {
		os.Stdout.Write(body)
		return nil
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	fmt.Printf("beesd telemetry (%s)\n", url)
	fmt.Print(snap.Render())
	return nil
}

func pickScheme(name string, reg *telemetry.Registry, box *outbox.Outbox) (core.Scheme, error) {
	switch name {
	case "bees":
		cfg := core.DefaultConfig()
		cfg.Telemetry = reg
		cfg.Outbox = box
		return core.New(cfg), nil
	case "bees-ea":
		cfg := core.DefaultConfig()
		cfg.Adaptive = false
		cfg.Telemetry = reg
		cfg.Outbox = box
		return core.New(cfg), nil
	case "direct":
		return baseline.Direct{}, nil
	case "smarteye":
		return baseline.NewSmartEye(), nil
	case "mrc":
		return baseline.NewMRC(), nil
	default:
		return nil, fmt.Errorf("unknown scheme %q", name)
	}
}

func mbf(b int) float64 { return float64(b) / (1 << 20) }

func errOrOK(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}

func breakerStateName(s int) string {
	switch s {
	case client.BreakerOpen:
		return "open"
	case client.BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

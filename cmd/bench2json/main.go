// Command bench2json converts `go test -bench` output on stdin into a
// JSON document on stdout, for the bench trajectory files the Makefile's
// bench target emits (BENCH_pipeline.json).
//
// The document keeps benchstat compatibility by embedding the unmodified
// benchmark text in the "raw" field:
//
//	jq -r .raw BENCH_pipeline.json > old.txt   # then benchstat old.txt new.txt
//
// while the "benchmarks" array carries the parsed per-benchmark metrics
// (runs, ns/op, B/op, allocs/op, MB/s) for direct programmatic use.
//
// With -compare it instead diffs two such documents and gates on matcher
// regressions:
//
//	bench2json -compare old.json new.json
//
// prints a per-benchmark delta for every benchmark whose name matches
// -match (default: the matcher/kernel benchmarks) and exits nonzero if
// any of them slowed down by more than -threshold (default 0.15, i.e.
// 15% ns/op). `make benchdiff` wraps this.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type benchmark struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

type document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Packages   []string    `json:"packages,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
	Raw        string      `json:"raw"`
}

// defaultMatch selects the kernel benchmarks the compare gate watches:
// the matcher prepared/reference pairs in features, core, and index
// (Match / Jaccard / Prepare / BatchGraph / QueryMax) plus, since the
// extraction fast path landed, the extraction and codec hot path
// (Extract / DetectFAST / Encoded / Pipeline), plus, since delta upload
// landed, the block store's dedup and resume paths (Block / Resume),
// plus, since the write-ahead log landed, the durability hot path —
// append cost per sync policy and replay throughput (WAL / Recovery) —
// plus, since the sharded cluster landed, the per-image routing and
// replica-repair paths (Route / ShardSync) and the cluster data path —
// a node's vote-first shard query and the router's query and upload
// fan-out (ShardQuery / Router).
const defaultMatch = `Match|Jaccard|Prepare|BatchGraph|QueryMax|Extract|DetectFAST|Encoded|Pipeline|Block|Resume|WAL|Recovery|Route|ShardSync|ShardQuery|Router`

func main() {
	compare := flag.Bool("compare", false,
		"compare two bench JSON files (old new) instead of converting stdin")
	match := flag.String("match", defaultMatch,
		"regexp of benchmark names the -compare gate applies to")
	threshold := flag.Float64("threshold", 0.15,
		"fractional ns/op slowdown tolerated by -compare before failing")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench2json -compare [-match re] [-threshold f] old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *match, *threshold, os.Stdout))
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	data, err := marshalDocument(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

func marshalDocument(doc *document) ([]byte, error) {
	return json.MarshalIndent(doc, "", "  ")
}

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func runCompare(oldPath, newPath, match string, threshold float64, w io.Writer) int {
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 1
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 1
	}
	re, err := regexp.Compile(match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json: bad -match:", err)
		return 2
	}
	regressions := compareDocs(oldDoc, newDoc, re, threshold, w)
	if regressions > 0 {
		fmt.Fprintf(w, "FAIL: %d matcher benchmark(s) regressed more than %.0f%%\n",
			regressions, threshold*100)
		return 1
	}
	fmt.Fprintln(w, "ok: no matcher benchmark regressed past the threshold")
	return 0
}

// compareDocs prints a delta line per gated benchmark present in both
// documents and returns how many regressed past the threshold.
// Benchmarks present on only one side are reported but never fail the
// gate — renames and additions are not regressions.
func compareDocs(oldDoc, newDoc *document, re *regexp.Regexp, threshold float64, w io.Writer) int {
	oldBy := make(map[string]benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldBy[b.Name] = b
	}
	regressions := 0
	seen := make(map[string]bool, len(newDoc.Benchmarks))
	for _, nb := range newDoc.Benchmarks {
		if !re.MatchString(nb.Name) {
			continue
		}
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "new  %-44s %12.0f ns/op (no baseline)\n", nb.Name, nb.NsPerOp)
			continue
		}
		if ob.NsPerOp <= 0 {
			continue
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		verdict := "ok  "
		if delta > threshold {
			verdict = "FAIL"
			regressions++
		}
		fmt.Fprintf(w, "%s %-44s %12.0f -> %12.0f ns/op  %+6.1f%%\n",
			verdict, nb.Name, ob.NsPerOp, nb.NsPerOp, delta*100)
	}
	for _, ob := range oldDoc.Benchmarks {
		if re.MatchString(ob.Name) && !seen[ob.Name] {
			fmt.Fprintf(w, "gone %-44s (in baseline only)\n", ob.Name)
		}
	}
	return regressions
}

func parse(r io.Reader) (*document, error) {
	doc := &document{Benchmarks: []benchmark{}}
	var raw strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		raw.WriteString(line)
		raw.WriteByte('\n')
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Packages = append(doc.Packages, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc.Raw = raw.String()
	return doc, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkQueryMaxSharded/shards=8-8  100  12345 ns/op  2048 B/op  12 allocs/op
func parseBenchLine(line string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: fields[0], Runs: runs}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "MB/s":
			b.MBPerSec = v
		}
	}
	return b, b.NsPerOp > 0
}

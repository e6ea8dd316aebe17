// Command perfbench is the repository's benchmark: three seeded RnB
// traffic mixes over an in-process loopback tier, measured end to end
// (-trace 0) or layer by layer (-trace 1). See WORKLOADS.md for why
// each mix exists and what it bypasses.
//
//	bash perfbench/run.sh --workload warm_text --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"rnb"
)

// liveSetups is how many times a run builds its tier from scratch;
// setup_s is the median, and the last build is measured.
const liveSetups = 3

var liveSpecs = map[string]liveSpec{
	"warm_text": {callers: 1,
		opts: []rnb.Option{rnb.WithReplicas(replicas)}},
	"warm_binary_2c": {callers: 2, binary: true,
		opts: []rnb.Option{rnb.WithReplicas(replicas), rnb.WithBinaryProtocol(), rnb.WithPoolSize(2)}},
	"overbooked_mixed": {callers: 1, overbooked: true,
		opts: []rnb.Option{rnb.WithReplicas(replicas)}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, failures and the human-readable
// lines printed ahead of the JSON result.
type report struct {
	result
	notes  []string
	errors []string
	util   float64 // process CPU seconds per wall second while measuring
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed correctness check.
func (r *report) check(err error) {
	if err != nil {
		r.Correct = false
		r.errors = append(r.errors, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "warm_text | warm_binary_2c | overbooked_mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	root := flag.String("root", ".", "checkout root (for the run record)")
	out := flag.String("out", ".", "directory for the span file of a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds >= 1 and --trace 0|1")
	}
	d := time.Duration(*seconds) * time.Second
	rep := newReport()
	var err error
	spec, ok := liveSpecs[*workload]
	switch {
	case !ok:
		fatalf("unknown workload %q", *workload)
	case *trace == 0:
		err = runLive(rep, spec, *seed, d)
	default:
		err = traceLive(rep, *workload, spec, *seed, d, *out)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if rep.Attempted < 1 {
		fatalf("%s: no operation attempted", *workload)
	}
	if *trace == 1 {
		fillPerLayer(rep)
	}
	printRecord(rep, *workload, *seed, *root)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// subWindows is how many equal parts a measured window is split into.
// Outside load on a shared box only ever slows a part down, so each
// timing is the decile of its per-part values on the fast side (the
// second-fastest of twenty). Load that spoils up to nine parts in ten
// leaves it where it was, while a change to the program moves every
// part.
const subWindows = 20

// part is one sub-window's raw figures.
type part struct {
	lat      []int64 // multi-get latencies, ns
	requests int     // operations of every kind
	wall     time.Duration
	res      resources
}

// endToEnd fills the metrics every --trace 0 run reports.
func endToEnd(rep *report, parts []part, tpr, setupS float64) {
	// fast returns the fast-side decile of f over the parts: the lower
	// one, or the upper one when higher is better.
	fast := func(higherBetter bool, f func(p part) float64) float64 {
		vs := make([]float64, len(parts))
		for i, p := range parts {
			vs[i] = f(p)
		}
		slices.Sort(vs)
		if higherBetter {
			return vs[len(vs)-1-len(vs)/10]
		}
		return vs[len(vs)/10]
	}
	rep.set("get_p50_us", "us", fast(false, func(p part) float64 { return percentileUS(p.lat, 0.50) }))
	rep.set("get_p90_us", "us", fast(false, func(p part) float64 { return percentileUS(p.lat, 0.90) }))
	rep.set("req_per_s", "1/s", fast(true, func(p part) float64 { return float64(p.requests) / p.wall.Seconds() }))
	rep.set("cpu_us_per_req", "us", fast(false, func(p part) float64 { return float64(p.res.cpu.Microseconds()) / float64(p.requests) }))
	// Allocations do not depend on outside load: count them over the
	// whole window.
	var requests int
	var mallocs, allocBytes uint64
	for _, p := range parts {
		requests += p.requests
		mallocs += p.res.mallocs
		allocBytes += p.res.allocBytes
	}
	rep.set("allocs_per_req", "count", float64(mallocs)/float64(requests))
	rep.set("alloc_bytes_per_req", "B", float64(allocBytes)/float64(requests))
	rep.set("tpr", "txn/req", tpr)
	rep.set("ok_frac", "ratio", 1-float64(rep.Failed)/float64(rep.Attempted))
	rep.set("max_rss_mb", "MB", maxResident(parts))
	rep.set("setup_s", "s", setupS)
	var wall time.Duration
	var cpu time.Duration
	samples := 0
	for _, p := range parts {
		wall += p.wall
		cpu += p.res.cpu
		samples += len(p.lat)
	}
	rep.note("samples: %d multi-gets timed in %d sub-windows of %.2fs; each p90 has about %d beyond it",
		samples, len(parts), wall.Seconds()/float64(len(parts)), samples/len(parts)/10)
	pcts := make([]string, len(parts))
	for i, p := range parts {
		pcts[i] = fmt.Sprintf("%.0f/%.0f/%.0f", percentileUS(p.lat, 0.5), percentileUS(p.lat, 0.9), percentileUS(p.lat, 0.99))
	}
	rep.note("p50/p90/p99 per sub-window (us): %s", strings.Join(pcts, " "))
	rep.util = cpu.Seconds() / wall.Seconds()
	rep.note("cpu_util %.3f of nproc %d%s", rep.util, runtime.NumCPU(), saturated(rep.util))
}

// maxResident is the largest resident size seen at the end of a
// sub-window. It counts the Go-managed memory the process holds from
// the OS. The process's own peak RSS would mostly reflect the garbage
// left by the set-ups and when the collector happened to run.
func maxResident(parts []part) float64 {
	m := 0.0
	for _, p := range parts {
		m = max(m, p.res.residentMB)
	}
	return m
}

func saturated(util float64) string {
	if util >= 0.9*float64(runtime.NumCPU()) {
		return " — SATURATED: the box had no idle CPU in this window"
	}
	return ""
}

// printRecord prints the run record and notes ahead of the result.
func printRecord(rep *report, workload string, seed int64, root string) {
	rec := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitOf(root),
		"cpu_util":   rep.util,
		"saturated":  saturated(rep.util) != "",
	}
	b, _ := json.Marshal(map[string]any{"record": rec}) // plain map of strings and numbers
	fmt.Println(string(b))
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	for _, e := range rep.errors {
		fmt.Println("CHECK FAILED:", e)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// commitOf names the code under test: the VCS revision the binary was
// built from when the build recorded one, else a hash of the Go
// sources and module files under root (a checkout need not be a git
// repository).
func commitOf(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

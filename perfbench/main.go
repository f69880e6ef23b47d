// Command perfbench is fzmod's benchmark: the bulk, small and serve
// workloads with host-referenced timings, and a traced run that replays
// every operation layer by layer. Run it from the repository root:
//
//	python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the JSON result; the line before
// it carries the steadiness diagnostics of every timed metric.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
	"time"
)

// meta.json records the default seed, the nominal reference-loop time
// every timing is scaled to, and which end-to-end metric each per-layer
// metric should move on which workload.
//
//go:embed meta.json
var metaJSON []byte

type meta struct {
	DefaultSeed  int64   `json:"default_seed"`
	NominalRefMs float64 `json:"nominal_ref_ms"`
}

// spec is the part of BENCHMARK.json the program needs: the metric names
// and units it must print.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
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

// timedDiag is the steadiness record of one timed metric: the per-op
// samples it was computed from (reference-scaled) and the metric computed
// from raw wall-clock samples instead.
type timedDiag struct {
	Samples summary `json:"samples"`
	Raw     float64 `json:"raw"`
}

// report collects a run's metric values, diagnostics and outcome counts.
type report struct {
	values            map[string]float64
	diag              map[string]any
	attempted, failed int
	errs              []error
}

func newReport() *report {
	return &report{values: map[string]float64{}, diag: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// timed sets a metric computed from reference-scaled samples, recording
// the samples' distribution and the raw-clock value beside it.
func (r *report) timed(name string, v, raw float64, samples []float64) {
	r.set(name, v)
	r.diag[name] = timedDiag{Samples: summarize(samples), Raw: raw}
}

// resetPeakRSS returns the memory the benchmark's input generation left
// behind to the OS and restarts the kernel's peak-RSS count, so
// peak_rss_mib covers the program's set-up and operations rather than
// the generators. Where the kernel refuses the reset, the peak covers the
// whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is the process's peak resident set since the last reset.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var m meta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		return fmt.Errorf("meta.json: %w", err)
	}
	workload := flag.String("workload", "", "workload to run: bulk, small or serve")
	seed := flag.Int64("seed", m.DefaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 makes the traced layer-replay run, 0 the end-to-end run")
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition listing the metrics to print")
	outDir := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	h := newHostRef(m.NominalRefMs)
	budget := time.Duration(*seconds) * time.Second
	rep := newReport()
	want := sp.EndToEnd
	switch *trace {
	case 0:
		err = runWorkload(*workload, *seed, budget, h, rep)
	case 1:
		want = sp.PerLayer
		err = runTraced(*workload, *seed, budget, h, rep, *outDir)
	default:
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		return err
	}
	rep.set("peak_rss_mib", peakRSSMiB())
	rep.diag["host.ref_loop_ms"] = summarize(h.samples)

	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, sm := range want {
		v, ok := rep.values[sm.Name]
		if !ok {
			return fmt.Errorf("workload %s produced no %s", *workload, sm.Name)
		}
		res.Metrics[sm.Name] = metric{Value: v, Unit: sm.Unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	diag, err := json.Marshal(rep.diag)
	if err != nil {
		return err
	}
	fmt.Printf("diagnostics: %s\n", diag)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload makes an end-to-end run, timed against the host reference.
func runWorkload(name string, seed int64, budget time.Duration, h *hostRef, rep *report) error {
	switch name {
	case "bulk", "small":
		fields := bulkFields(seed)
		if name == "small" {
			fields = smallPool(fields)
		}
		resetPeakRSS()
		rt := newRoundTrips(h, fields)
		if err := rt.setUp(); err != nil {
			return err
		}
		defer rt.p.Close()
		if err := rt.run(budget); err != nil {
			return err
		}
		rt.report(rep)
		return nil
	case "serve":
		return runServe(seed, budget, h, rep)
	default:
		return fmt.Errorf("--workload %q: want bulk, small or serve", name)
	}
}

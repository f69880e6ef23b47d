package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fzmod"
)

// presetKeys names the three presets in metric names, in the order
// fzmod.Presets returns them.
var presetKeys = []string{"default", "quality", "speed"}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 9

// refMaxAge bounds the time between reference samples. Most bulk
// operations take longer than this, so each is bracketed by its own pair
// of samples; small ones share a pair with their neighbours, which keeps
// the reference loop's share of the run near a sixth.
const refMaxAge = 20 * time.Millisecond

// roundTrips is the state of a bulk or small run: every field through
// every preset, Pipeline.Compress then fzmod.Decompress.
type roundTrips struct {
	h       *hostRef
	p       *fzmod.Platform
	fields  []field
	absEB   []float64
	presets []*fzmod.Pipeline

	comp, dec [][]series // [preset][field]
	blobBytes []int      // [preset], over the warm-up pass
	psnr      [][]float64
	latency   series // every timed operation
	setup     series

	attempted, failed int
	firstErr          error
}

func newRoundTrips(h *hostRef, fields []field) *roundTrips {
	rt := &roundTrips{h: h, fields: fields, presets: fzmod.Presets()}
	n := len(rt.presets)
	rt.comp, rt.dec = make([][]series, n), make([][]series, n)
	for i := range rt.presets {
		rt.comp[i] = make([]series, len(fields))
		rt.dec[i] = make([]series, len(fields))
	}
	rt.blobBytes = make([]int, n)
	rt.psnr = make([][]float64, n)
	return rt
}

// fail counts one failed operation, keeping the first error for the log.
func (rt *roundTrips) fail(err error) {
	rt.failed++
	if rt.firstErr == nil {
		rt.firstErr = err
	}
}

// setUp times what a caller pays before its first results: a fresh
// platform, then one cold round trip per preset on the first field. It
// repeats setupRepeats times and keeps the last platform.
func (rt *roundTrips) setUp() error {
	f := rt.fields[0]
	for i := 0; i < setupRepeats; i++ {
		if rt.p != nil {
			rt.p.Close()
			runtime.GC() // the last set-up's garbage is not this one's cost
		}
		rt.h.tick(0)
		t0 := time.Now()
		rt.p = fzmod.NewPlatform()
		for _, pl := range rt.presets {
			blob, err := pl.Compress(rt.p, f.data, f.dims, fzmod.Rel(relEB))
			if err != nil {
				return fmt.Errorf("set-up: %s compress %s: %w", pl.Name(), f.name, err)
			}
			if _, _, err := fzmod.Decompress(rt.p, blob); err != nil {
				return fmt.Errorf("set-up: %s decompress %s: %w", pl.Name(), f.name, err)
			}
		}
		rt.h.record(&rt.setup, time.Since(t0))
	}
	rt.h.tick(0)
	var err error
	rt.absEB, err = resolveAll(rt.p, rt.fields)
	return err
}

// roundTrip compresses and decompresses one field with one preset and
// checks the result. When timed, both calls are recorded against the
// reference sample taken next to them. It returns the container and the
// reconstruction, nil where a call failed.
func (rt *roundTrips) roundTrip(pi, fi int, timed bool) ([]byte, []float32) {
	pl, f := rt.presets[pi], rt.fields[fi]
	rt.attempted++
	rt.h.tick(refMaxAge)
	t0 := time.Now()
	blob, err := pl.Compress(rt.p, f.data, f.dims, fzmod.Rel(relEB))
	tc := time.Since(t0)
	if err != nil {
		rt.fail(fmt.Errorf("%s compress %s: %w", pl.Name(), f.name, err))
		return nil, nil
	}
	rt.h.tick(refMaxAge)
	t1 := time.Now()
	vals, dims, err := fzmod.Decompress(rt.p, blob)
	td := time.Since(t1)
	if timed {
		rt.h.record(&rt.comp[pi][fi], tc)
		rt.h.record(&rt.dec[pi][fi], td)
		rt.h.record(&rt.latency, tc)
		rt.h.record(&rt.latency, td)
	}
	switch {
	case err != nil:
		rt.fail(fmt.Errorf("%s decompress %s: %w", pl.Name(), f.name, err))
	case dims != f.dims:
		rt.fail(fmt.Errorf("%s %s: decompressed dims %v, want %v", pl.Name(), f.name, dims, f.dims))
	default:
		if i := fzmod.VerifyBound(f.data, vals, rt.absEB[fi]); i >= 0 {
			rt.fail(fmt.Errorf("%s %s: value %d off by more than %g", pl.Name(), f.name, i, rt.absEB[fi]))
			break
		}
		return blob, vals
	}
	return blob, nil
}

// run makes the discarded warm-up pass, which also records each preset's
// container bytes and PSNR, then times round-robin passes for the budget:
// field by field, every preset in turn, so a slow host period hits every
// preset alike.
func (rt *roundTrips) run(budget time.Duration) error {
	for fi, f := range rt.fields {
		for pi := range rt.presets {
			blob, vals := rt.roundTrip(pi, fi, false)
			rt.blobBytes[pi] += len(blob)
			if vals == nil {
				continue // counted as failed
			}
			q, err := fzmod.Evaluate(rt.p, f.data, vals)
			if err != nil {
				return fmt.Errorf("evaluating %s: %w", f.name, err)
			}
			rt.psnr[pi] = append(rt.psnr[pi], q.PSNR)
		}
	}
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for fi := range rt.fields {
			for pi := range rt.presets {
				rt.roundTrip(pi, fi, true)
			}
		}
	}
	rt.h.settle()
	return nil
}

// throughput is the fields' bytes over the sum of their median per-op
// times, in GB/s; pick selects the scaled or raw samples.
func (rt *roundTrips) throughput(ss []series, pick func(series) []float64) float64 {
	var bytes int
	var msSum float64
	for fi, s := range ss {
		bytes += rt.fields[fi].bytes()
		msSum += median(pick(s))
	}
	return float64(bytes) / (msSum * 1e6)
}

func scaledOf(s series) []float64 { return s.scaled }
func rawOf(s series) []float64    { return s.raw }

// report fills the end-to-end metrics and their diagnostics.
func (rt *roundTrips) report(out *report) {
	var raw int
	for _, f := range rt.fields {
		raw += f.bytes()
	}
	for pi, key := range presetKeys {
		for _, op := range []struct {
			name string
			ss   []series
		}{{"comp_gbs", rt.comp[pi]}, {"dec_gbs", rt.dec[pi]}} {
			name := op.name + "." + key
			var all []float64
			for _, s := range op.ss {
				all = append(all, s.scaled...)
			}
			out.timed(name, rt.throughput(op.ss, scaledOf), rt.throughput(op.ss, rawOf), all)
		}
		out.set("ratio."+key, float64(raw)/float64(rt.blobBytes[pi]))
		out.set("psnr_db."+key, finiteMean(rt.psnr[pi]))
	}
	out.timed("p50_ms", quantile(rt.latency.scaled, 0.5), quantile(rt.latency.raw, 0.5), rt.latency.scaled)
	out.timed("p99_ms", quantile(rt.latency.scaled, 0.99), quantile(rt.latency.raw, 0.99), rt.latency.scaled)
	out.timed("setup_s", median(rt.setup.scaled)/1e3, median(rt.setup.raw)/1e3, rt.setup.scaled)
	out.attempted += rt.attempted
	out.failed += rt.failed
	if rt.firstErr != nil {
		out.errs = append(out.errs, rt.firstErr)
	}
}

// finiteMean averages the finite values of xs: a field reconstructed
// exactly has an infinite PSNR, which no mean can carry.
func finiteMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

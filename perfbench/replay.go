package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"fzmod"
	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/encoder/fzg"
	"fzmod/internal/encoder/huffman"
	"fzmod/internal/fzio"
	"fzmod/internal/histogram"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/predictor/lorenzo"
	"fzmod/internal/predictor/spline"
	"fzmod/internal/preprocess"
)

// The replay re-runs each operation of a workload one layer call at a
// time, from the benchmark's own code, on a width-1 view of the platform:
// Resolve → Predict → histogram → huffman.Build/Codec.Encode or
// fzg.Encode → Container.MarshalInto, then Unmarshal →
// ParseTable/Decode or fzg.Decode → Reconstruct. Each call is a span. The
// glue between the calls mirrors internal/core, and every replayed
// container and reconstruction is checked bit for bit against the
// end-to-end path, so the per-layer numbers measure the work the pipeline
// does. The Report entry points run on the same input and width, which
// gives the executor's task count and its overhead over the layer calls.

// instSeries holds one layer's samples per instance, an instance being
// one (field, preset) pair; a layer metric is the sum over instances of
// their median, the layer's time for one pass over the workload.
type instSeries map[int]*series

func (is instSeries) at(inst int) *series {
	s, ok := is[inst]
	if !ok {
		s = &series{}
		is[inst] = s
	}
	return s
}

func (is instSeries) total() float64 {
	var sum float64
	for _, s := range is {
		sum += median(s.scaled)
	}
	return sum
}

type replayer struct {
	h  *hostRef
	tr *tracer
	p  *fzmod.Platform // full width: the end-to-end outputs the replay must equal
	p1 *fzmod.Platform // width-1 view: the replay and the Report calls

	layers             map[string]instSeries // span name → samples
	outliers           map[int]int           // Lorenzo instances' outlier counts
	tasks              map[int]int           // STF tasks per instance, compress + decompress
	poolGets, poolHits int64
	passes             int
	tracing            instSeries // traced replay minus untraced Report time

	op       int           // current operation id
	layerSum time.Duration // layer time of the current instance

	attempted, failed int
	firstErr          error
}

func newReplayer(h *hostRef, tr *tracer, p *fzmod.Platform) *replayer {
	return &replayer{
		h: h, tr: tr, p: p, p1: p.WithWorkers(1),
		layers:   map[string]instSeries{},
		outliers: map[int]int{},
		tasks:    map[int]int{},
		tracing:  instSeries{},
	}
}

func (r *replayer) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// call runs one layer call as a span under parent and records its time.
func (r *replayer) call(parent, inst int, name string, fn func() error) error {
	id := r.tr.begin(r.op, parent, name)
	err := fn()
	d := r.tr.end(id)
	r.layerSum += d
	r.h.record(r.layer(name, inst), d)
	return err
}

// layer returns the series of one layer's calls on one instance.
func (r *replayer) layer(name string, inst int) *series {
	if r.layers[name] == nil {
		r.layers[name] = instSeries{}
	}
	return r.layers[name].at(inst)
}

// replayed is what the layer-by-layer compress produced. Lorenzo codes
// live in a pooled slab, as in the pipeline, returned by release.
type replayed struct {
	blob  []byte
	codes []uint16
	slab  *device.Slab[uint16]
}

func (rp *replayed) release(p *fzmod.Platform) {
	if rp.slab != nil {
		p.ScratchPool().PutU16(rp.slab)
		rp.slab = nil
	}
}

func (r *replayer) compress(inst int, pl *fzmod.Pipeline, f field) (*replayed, error) {
	if pl.Sec != nil {
		return nil, fmt.Errorf("%s: the replay covers pipelines without a secondary stage", pl.Name())
	}
	p := r.p1
	root := r.tr.begin(r.op, 0, "compress")
	defer r.tr.end(root)

	var absEB float64
	err := r.call(root, inst, "preprocess.resolve", func() (err error) {
		absEB, _, err = preprocess.Resolve(p, pl.PredPlace, f.data, fzmod.Rel(relEB))
		return err
	})
	if err != nil {
		return nil, err
	}

	var pred core.Prediction
	rp := &replayed{}
	switch m := pl.Pred.(type) {
	case core.LorenzoPredictor:
		var q *lorenzo.Quantized
		rp.slab = p.ScratchPool().GetU16(f.dims.N(), false)
		if err := r.call(root, inst, "predictor.lorenzo.predict", func() (err error) {
			q, err = lorenzo.EncodeInto(p, pl.PredPlace, f.data, f.dims, absEB, m.Radius, rp.slab.Data)
			return err
		}); err != nil {
			rp.release(p)
			return nil, err
		}
		outVal := make([]uint32, len(q.OutVal))
		for i, v := range q.OutVal {
			outVal[i] = uint32(v)
		}
		pred = core.Prediction{Codes: q.Codes, Radius: q.Radius, Extras: map[string][]byte{"outval": device.U32Bytes(outVal)}}
		r.outliers[inst] = q.OutlierCount()
	case core.SplinePredictor:
		var q *spline.Quantized
		if err := r.call(root, inst, "predictor.spline.predict", func() (err error) {
			q, err = spline.Encode(p, pl.PredPlace, f.data, f.dims, absEB, m.Config)
			return err
		}); err != nil {
			return nil, err
		}
		meta := binary.AppendUvarint(nil, uint64(q.MaxLevel))
		meta = binary.AppendUvarint(meta, uint64(len(q.Choices)))
		meta = append(meta, q.Choices...)
		meta = binary.AppendUvarint(meta, uint64(len(q.Orders)))
		meta = append(meta, q.Orders...)
		pred = core.Prediction{Codes: q.Codes, Radius: q.Radius, Extras: map[string][]byte{
			"anchors": device.F32Bytes(q.Anchors),
			"outval":  device.F32Bytes(q.OutVal),
			"meta":    meta,
		}}
	default:
		return nil, fmt.Errorf("%s: no replay for predictor %s", pl.Name(), pl.Pred.Name())
	}
	rp.codes = pred.Codes
	rp.blob, err = r.encode(root, inst, pl, f, absEB, &pred)
	if err != nil {
		rp.release(p)
		return nil, err
	}
	return rp, nil
}

// encode replays the encoder and serializer calls of compress.
func (r *replayer) encode(root, inst int, pl *fzmod.Pipeline, f field, absEB float64, pred *core.Prediction) ([]byte, error) {
	p := r.p1
	var payload []byte
	switch m := pl.Enc.(type) {
	case core.HuffmanEncoder:
		var hist []uint32
		bins := 2 * pred.Radius
		hname := "histogram.standard"
		if m.Hist == core.HistTopK {
			hname = "histogram.topk"
		}
		if err := r.call(root, inst, hname, func() (err error) {
			if m.Hist == core.HistTopK {
				hist, err = histogram.TopK(p, device.Accel, pred.Codes, bins, m.TopK)
			} else {
				hist, err = histogram.Standard(p, device.Accel, pred.Codes, bins)
			}
			return err
		}); err != nil {
			return nil, err
		}
		var c *huffman.Codec
		if err := r.call(root, inst, "huffman.build", func() (err error) {
			if c, err = huffman.Build(hist); err == nil {
				payload = c.SerializeTable()
			}
			return err
		}); err != nil {
			return nil, err
		}
		var stream []byte
		if err := r.call(root, inst, "huffman.encode", func() (err error) {
			stream, err = c.Encode(p, pl.EncPlace, pred.Codes)
			return err
		}); err != nil {
			return nil, err
		}
		payload = append(payload, stream...) // table ‖ stream, as huffman.Compress lays it out
	case core.FZGEncoder:
		r.call(root, inst, "fzg.encode", func() error {
			payload = fzg.Encode(p, pl.EncPlace, pred.Codes, pred.Radius)
			return nil
		})
	default:
		return nil, fmt.Errorf("%s: no replay for encoder %s", pl.Name(), pl.Enc.Name())
	}

	var blob []byte
	err := r.call(root, inst, "fzio.marshal", func() error {
		c := fzio.New(fzio.Header{Pipeline: pl.PipelineName, Dims: f.dims, EB: absEB, RelEB: relEB, Extra: uint64(pred.Radius)})
		if err := c.Add("modules", []byte(pl.Pred.Name()+"\x00"+pl.Enc.Name())); err != nil {
			return err
		}
		if err := c.Add("codes", payload); err != nil {
			return err
		}
		keys := make([]string, 0, len(pred.Extras))
		for k := range pred.Extras {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := c.Add("pred."+k, pred.Extras[k]); err != nil {
				return err
			}
		}
		blob = make([]byte, c.MarshaledSize())
		n, err := c.MarshalInto(blob)
		blob = blob[:n]
		return err
	})
	return blob, err
}

func (r *replayer) decompress(inst int, blob []byte, predicted []uint16) ([]float32, error) {
	p := r.p1
	root := r.tr.begin(r.op, 0, "decompress")
	defer r.tr.end(root)

	var c *fzio.Container
	if err := r.call(root, inst, "fzio.unmarshal", func() (err error) {
		c, err = fzio.Unmarshal(blob)
		return err
	}); err != nil {
		return nil, err
	}
	mods, err := c.Segment("modules")
	if err != nil {
		return nil, err
	}
	names := strings.SplitN(string(mods), "\x00", 2)
	if len(names) != 2 {
		return nil, errors.New("malformed modules segment")
	}
	payload, err := c.Segment("codes")
	if err != nil {
		return nil, err
	}
	var codes []uint16
	switch names[1] {
	case "huffman", "huffman-topk":
		var cd *huffman.Codec
		var n int
		if err := r.call(root, inst, "huffman.parse_table", func() (err error) {
			cd, n, err = huffman.ParseTable(payload)
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.call(root, inst, "huffman.decode", func() (err error) {
			codes, err = cd.Decode(p, device.Accel, payload[n:])
			return err
		}); err != nil {
			return nil, err
		}
	case "fzg":
		if err := r.call(root, inst, "fzg.decode", func() (err error) {
			codes, err = fzg.Decode(p, device.Accel, payload)
			return err
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("no replay for encoder %s", names[1])
	}
	if !equalU16(codes, predicted) {
		return nil, errors.New("decoded codes differ from the predicted codes")
	}

	dims, eb := c.Header.Dims, c.Header.EB
	seg := func(name string) []byte { b, _ := c.Segment("pred." + name); return b }
	var vals []float32
	switch names[0] {
	case "lorenzo":
		err = r.call(root, inst, "predictor.lorenzo.reconstruct", func() (err error) {
			outU := device.BytesU32(seg("outval"))
			outVal := make([]int32, len(outU))
			for i, v := range outU {
				outVal[i] = int32(v)
			}
			q := &lorenzo.Quantized{Codes: codes, OutIdx: escapes(codes, len(outVal)), OutVal: outVal, Radius: int(c.Header.Extra)}
			vals, err = lorenzo.Decode(p, device.Accel, q, dims, eb)
			return err
		})
	case "spline":
		err = r.call(root, inst, "predictor.spline.reconstruct", func() error {
			q, err := splineQuantized(codes, seg, int(c.Header.Extra))
			if err != nil {
				return err
			}
			vals, err = spline.Decode(p, device.Accel, q, dims, eb)
			return err
		})
	default:
		err = fmt.Errorf("no replay for predictor %s", names[0])
	}
	return vals, err
}

// escapes rebuilds the ascending outlier index stream from the escape
// codes (code 0), as the core adapters do.
func escapes(codes []uint16, n int) []uint32 {
	out := make([]uint32, 0, n)
	for base := 0; ; {
		k := dispatch.NextZero(codes[base:])
		if k < 0 {
			return out
		}
		out = append(out, uint32(base+k))
		base += k + 1
	}
}

// splineQuantized parses the spline predictor's side channels.
func splineQuantized(codes []uint16, seg func(string) []byte, radius int) (*spline.Quantized, error) {
	meta := seg("meta")
	maxLevel, k := binary.Uvarint(meta)
	if k <= 0 {
		return nil, errors.New("spline meta segment corrupt")
	}
	pos := k
	var parts [2][]byte
	for i := range parts {
		n, k := binary.Uvarint(meta[pos:])
		if k <= 0 || pos+k+int(n) > len(meta) {
			return nil, errors.New("spline meta segment corrupt")
		}
		pos += k
		parts[i] = meta[pos : pos+int(n)]
		pos += int(n)
	}
	outVal := device.BytesF32(seg("outval"))
	return &spline.Quantized{
		Codes: codes, Anchors: device.BytesF32(seg("anchors")),
		OutIdx: escapes(codes, len(outVal)), OutVal: outVal,
		Choices: parts[0], Orders: parts[1], Radius: radius, MaxLevel: int(maxLevel),
	}, nil
}

func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// instance replays one field through one preset and runs the untraced
// Report entry points on the same input and width, alternating which goes
// first from pass to pass so neither always finds the caches warm. On the
// first pass the replay is also checked against Pipeline.Compress and
// fzmod.Decompress at full width.
func (r *replayer) instance(inst int, pl *fzmod.Pipeline, f field, pass int) {
	r.op = r.tr.newOp()
	r.attempted++
	r.h.tick(refMaxAge)
	var (
		vals, evals   []float32
		blob          []byte
		traced, e2e   time.Duration
		rerr, eerr    error
		rp            *replayed
		crep, drep    *fzmod.ExecReport
		before, after fzmod.PoolStats
	)
	replay := func() {
		r.layerSum = 0
		t0 := time.Now()
		rp, rerr = r.compress(inst, pl, f)
		if rerr == nil {
			vals, rerr = r.decompress(inst, rp.blob, rp.codes)
			rp.release(r.p1)
		}
		traced = time.Since(t0)
	}
	endToEnd := func() {
		before = fzmod.Stats(r.p).Pool
		t1 := time.Now()
		blob, crep, eerr = pl.CompressMonolithicReport(r.p1, f.data, f.dims, fzmod.Rel(relEB))
		if eerr == nil {
			evals, _, drep, eerr = fzmod.DecompressReport(r.p1, blob)
		}
		e2e = time.Since(t1)
		after = fzmod.Stats(r.p).Pool
	}
	if pass%2 == 0 {
		replay()
		endToEnd()
	} else {
		endToEnd()
		replay()
	}
	if rerr != nil {
		r.fail(fmt.Errorf("replaying %s on %s: %w", pl.Name(), f.name, rerr))
		return
	}
	if eerr != nil {
		r.fail(fmt.Errorf("%s on %s through the Report entry points: %w", pl.Name(), f.name, eerr))
		return
	}
	r.poolGets += after.Gets - before.Gets
	r.poolHits += after.Hits - before.Hits
	r.tasks[inst] = len(crep.Trace) + len(drep.Trace)
	r.h.record(r.layer("stf.overhead", inst), e2e-r.layerSum)
	r.h.record(r.tracing.at(inst), traced-e2e)

	if !bytes.Equal(rp.blob, blob) || !equalBits(vals, evals) {
		r.fail(fmt.Errorf("%s on %s: the layer replay differs from the Report entry points", pl.Name(), f.name))
		return
	}
	if pass == 0 {
		fb, err := pl.Compress(r.p, f.data, f.dims, fzmod.Rel(relEB))
		if err != nil {
			r.fail(err)
			return
		}
		fv, _, err := fzmod.Decompress(r.p, fb)
		if err != nil || !bytes.Equal(fb, rp.blob) || !equalBits(fv, vals) {
			r.fail(fmt.Errorf("%s on %s: the layer replay differs from Pipeline.Compress + fzmod.Decompress", pl.Name(), f.name))
		}
	}
}

// run replays every field through every preset, pass after pass, until
// the deadline; at least one pass.
func (r *replayer) run(fields []field, deadline time.Time) {
	presets := fzmod.Presets()
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for fi, f := range fields {
			for pi, pl := range presets {
				r.instance(fi*len(presets)+pi, pl, f, pass)
			}
		}
		r.passes++
	}
	r.h.settle()
}

// report fills the per-layer metrics the replay measures. Each layer's
// time is offered in ms and µs; BENCHMARK.json names the one printed.
func (r *replayer) report(out *report) {
	for name, is := range r.layers {
		out.set(name+"_ms", is.total())
		out.set(name+"_us", is.total()*1e3)
	}
	var outliers, tasks int
	for _, n := range r.outliers {
		outliers += n
	}
	for _, n := range r.tasks {
		tasks += n
	}
	out.set("predictor.lorenzo.outliers", float64(outliers))
	out.set("stf.tasks", float64(tasks))
	out.set("device.pool_gets", float64(r.poolGets)/float64(r.passes))
	if r.poolGets > 0 {
		out.set("device.pool_hit_ratio", float64(r.poolHits)/float64(r.poolGets))
	}
	out.diag["replay.passes"] = r.passes
	out.diag["replay.tracing_overhead_ms"] = r.tracing.total()
	fmt.Printf("trace: replay %d passes; tracing overhead (traced replay minus untraced Report calls) %.3f ms per pass\n",
		r.passes, r.tracing.total())
	out.attempted += r.attempted
	out.failed += r.failed
	if r.firstErr != nil {
		out.errs = append(out.errs, r.firstErr)
	}
}

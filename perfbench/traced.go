package main

import (
	"fmt"
	"math/rand"
	"time"

	"fzmod"
	"fzmod/internal/device"
)

// runTraced makes the traced run: a layer replay of the workload's
// operations, direct region reads over the serve workload's stored
// objects, and the serve mix with a span per request. Every workload runs
// all three parts, the replay on its own inputs and the other two on the
// objects the serve workload builds from the same seed, so each traced
// run reports every per-layer metric. The parts get half, a sixth and a
// third of the budget, each running at least one pass or request. Its
// timings include the tracing, so the end-to-end metrics come from the
// untraced run only.
func runTraced(name string, seed int64, budget time.Duration, h *hostRef, rep *report, outDir string) error {
	bulk := bulkFields(seed)
	rig, err := newServeRig(h, bulk)
	if err != nil {
		return err
	}
	defer rig.close()
	if err := rig.setUp(1); err != nil {
		return err
	}
	var fields []field
	switch name {
	case "bulk":
		fields = bulk
	case "small":
		fields = rig.pool
	case "serve":
		// What the serve mix compresses: the 8 MiB inputs and, thinned to
		// keep a pass short, the 64 KiB ones.
		fields = append(fields, rig.large...)
		for i := 0; i < len(rig.pool); i += 4 {
			fields = append(fields, rig.pool[i])
		}
	default:
		return fmt.Errorf("--workload %q: want bulk, small or serve", name)
	}
	tr := newTracer()
	rp := newReplayer(h, tr, rig.p)
	rp.run(fields, time.Now().Add(budget/2))
	rp.report(rep)
	if err := regionProbe(rig, tr, seed, time.Now().Add(budget/6), rep); err != nil {
		return err
	}
	serveProbe(rig, tr, seed, time.Now().Add(budget/3), rep)
	rep.set("host.ref_loop_ms", quantile(h.samples, 0.5))
	rep.set("host.ref_loop_ms.p25", quantile(h.samples, 0.25))
	rep.set("host.ref_loop_ms.p75", quantile(h.samples, 0.75))
	return tr.write(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
}

// regionProbe reads random 1–2-chunk boxes of the stored objects through
// Region.ReadReport directly, with proof checks and a slab cache of half
// the decoded object bytes as the server has, and times one Merkle proof
// check per read.
func regionProbe(rig *serveRig, tr *tracer, seed int64, deadline time.Time, rep *report) error {
	h := rig.h
	var decoded int64
	for _, o := range rig.objs {
		decoded += int64(o.f.bytes())
	}
	cache := fzmod.NewSlabCache(decoded / 2)
	regs := make([]*fzmod.Region, len(rig.objs))
	for i, o := range rig.objs {
		reg, err := fzmod.OpenRegion(rig.p, fzmod.NewBytesFetcher(o.blob), fzmod.RegionOpts{Cache: cache, VerifyProofs: true})
		if err != nil {
			return fmt.Errorf("opening %s: %w", o.name, err)
		}
		regs[i] = reg
	}
	rng := rand.New(rand.NewSource(seed))
	var reads, proofs series
	var chunks, decodedN, hits, n int
	for n == 0 || time.Now().Before(deadline) {
		oi := rng.Intn(len(rig.objs))
		o, reg := rig.objs[oi], regs[oi]
		sel := regionSel(rng, o.f.dims)
		h.tick(refMaxAge)
		op := tr.newOp()
		id := tr.begin(op, 0, "region.read")
		vals, er, err := reg.ReadReport(sel)
		h.record(&reads, tr.end(id))
		n++
		rep.attempted++
		if err == nil {
			err = checkRegion(o, sel, device.F32Bytes(vals))
		}
		if err != nil {
			rep.failed++
			rep.errs = append(rep.errs, fmt.Errorf("region read %v of %s: %w", sel, o.name, err))
			continue
		}
		chunks += er.Region.Chunks
		decodedN += er.Region.Decoded
		hits += er.Region.CacheHits

		ix := reg.Index()
		ci := rng.Intn(ix.NumChunks())
		ref := ix.Chunks[ci]
		id = tr.begin(op, 0, "fzio.verify_proof")
		err = ix.VerifyProof(ci, o.blob[ref.Offset:ref.Offset+ref.Length])
		h.record(&proofs, tr.end(id))
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.errs = append(rep.errs, fmt.Errorf("proof of chunk %d of %s: %w", ci, o.name, err))
		}
	}
	h.settle()
	rep.set("region.read_ms", median(reads.scaled))
	rep.set("fzio.verify_proof_us", median(proofs.scaled)*1e3)
	if chunks > 0 {
		rep.set("region.cache_hit_ratio", float64(hits)/float64(chunks))
	}
	rep.set("region.decoded_per_read", float64(decodedN)/float64(n))
	return nil
}

// serveProbe drives the serve mix until the deadline, recording a span
// per request with the queue, flush and execute phases its response
// headers report as children.
func serveProbe(rig *serveRig, tr *tracer, seed int64, deadline time.Time, rep *report) {
	h := rig.h
	var queue, execute, overhead series
	var compresses, batched int
	rig.drive(seed, deadline, func(o outcome) {
		rep.attempted++
		if o.err != nil {
			rep.failed++
			rep.errs = append(rep.errs, o.err)
			return
		}
		if o.warmup {
			return
		}
		op := tr.newOp()
		id := tr.add(op, 0, "serve.request", o.start, o.latency)
		if o.req.kind == reqRegion {
			return
		}
		tr.add(op, id, "serve.queue", o.start, o.queue)
		tr.add(op, id, "serve.flush", o.start.Add(o.queue), o.flush)
		tr.add(op, id, "serve.execute", o.start.Add(o.queue+o.flush), o.execute)
		h.record(&queue, o.queue)
		h.record(&execute, o.execute)
		h.record(&overhead, o.latency-o.execute)
		compresses++
		if o.batched {
			batched++
		}
	})
	rep.set("serve.queue_ms", median(queue.scaled))
	rep.set("serve.execute_ms", median(execute.scaled))
	rep.set("serve.overhead_ms", median(overhead.scaled))
	if compresses > 0 {
		rep.set("serve.batched_ratio", float64(batched)/float64(compresses))
	}
}

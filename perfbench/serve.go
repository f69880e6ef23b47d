package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fzmod"
	"fzmod/internal/device"
	"fzmod/internal/preprocess"
	"fzmod/internal/serve"
)

// The serve mix, in parts of 100: region reads over the stored objects,
// 64 KiB compresses (the batched path) and 8 MiB compresses with
// chunk=N/8 (direct admission, chunk-level concurrency).
const (
	mixRegion = 70
	mixSmall  = 25
)

const (
	serveClients       = 2  // closed-loop connections; the host has 2 vCPUs
	serveRoundRequests = 12 // per client between two reference samples
	serveSetupRepeats  = 5
	objectChunks       = 8
)

type reqKind int

const (
	reqRegion reqKind = iota
	reqSmall
	reqLarge
)

// request is one entry of a client's seeded request sequence.
type request struct {
	kind   reqKind
	obj    int // reqRegion: index into rig.objs
	sel    fzmod.RegionSel
	input  int // reqSmall: index into rig.pool; reqLarge: into rig.large
	preset int
}

// storedObj is one bulk field stored on the server as an 8-chunk object
// under one preset, with the values a direct decompress of it yields and
// the outcome of checking them against the bound.
type storedObj struct {
	name   string
	preset int
	f      field
	blob   []byte
	vals   []float32
	err    error
}

// serveRig is the serve workload's system under test and its inputs.
type serveRig struct {
	h       *hostRef
	p       *fzmod.Platform
	srv     *serve.Server
	ts      *httptest.Server
	objs    []storedObj
	pool    []field // 64 KiB compress inputs
	large   []field // 8 MiB compress inputs
	poolEB  []float64
	largeEB []float64
	bulk    []field // stored as objects
	// The inputs' request bodies, encoded once.
	bulkWire, poolWire, largeWire [][]byte

	setup series

	mu       sync.Mutex
	verified map[[32]byte]error // compress responses already decoded and checked
}

// largeInputs are the 8 MiB compress inputs: NYX 128³ and the first half
// of the HACC particles.
func largeInputs(bulk []field) []field {
	var out []field
	for _, f := range bulk {
		switch {
		case f.bytes() == 8<<20:
			out = append(out, f)
		case f.bytes() == 16<<20 && f.dims.Y == 1:
			n := len(f.data) / 2
			out = append(out, field{name: f.name + "/lo", data: f.data[:n], dims: fzmod.Dims1(n)})
		}
	}
	return out
}

func newServeRig(h *hostRef, bulk []field) (*serveRig, error) {
	rig := &serveRig{h: h, bulk: bulk, pool: smallPool(bulk), large: largeInputs(bulk), verified: map[[32]byte]error{}}
	p := fzmod.NewPlatform()
	defer p.Close()
	var err error
	if rig.poolEB, err = resolveAll(p, rig.pool); err != nil {
		return nil, err
	}
	if rig.largeEB, err = resolveAll(p, rig.large); err != nil {
		return nil, err
	}
	rig.bulkWire, rig.poolWire, rig.largeWire = wires(bulk), wires(rig.pool), wires(rig.large)
	return rig, nil
}

func wires(fs []field) [][]byte {
	out := make([][]byte, len(fs))
	for i, f := range fs {
		out[i] = device.F32Bytes(f.data)
	}
	return out
}

func resolveAll(p *fzmod.Platform, fs []field) ([]float64, error) {
	out := make([]float64, len(fs))
	for i, f := range fs {
		eb, _, err := preprocess.Resolve(p, device.Host, f.data, fzmod.Rel(relEB))
		if err != nil {
			return nil, fmt.Errorf("resolving the bound of %s: %w", f.name, err)
		}
		out[i] = eb
	}
	return out, nil
}

func dimsArg(d fzmod.Dims) string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }

func compressURL(base string, f field, preset int, chunked bool) string {
	u := fmt.Sprintf("%s/v1/compress?dims=%s&eb=%g&preset=%s", base, dimsArg(f.dims), relEB, presetKeys[preset])
	if chunked {
		u += fmt.Sprintf("&chunk=%d&workers=%d", len(f.data)/objectChunks, serveClients)
	}
	return u
}

// setUp times what an operator pays before the first read: a fresh
// platform and server, then every bulk field compressed through the
// server under every preset as an 8-chunk object and stored. It repeats
// that the given number of times and keeps the last server, then checks
// the stored objects.
func (rig *serveRig) setUp(repeats int) error {
	for i := 0; i < repeats; i++ {
		rig.close()
		runtime.GC() // the last set-up's garbage is not this one's cost
		rig.h.tick(0)
		t0 := time.Now()
		if err := rig.start(); err != nil {
			return fmt.Errorf("serve set-up: %w", err)
		}
		rig.h.record(&rig.setup, time.Since(t0))
	}
	rig.bulkWire = nil
	rig.h.tick(0)
	for i := range rig.objs {
		o := &rig.objs[i]
		vals, dims, err := fzmod.Decompress(rig.p, o.blob)
		if err != nil {
			return fmt.Errorf("decompressing stored object %s: %w", o.name, err)
		}
		if dims != o.f.dims {
			return fmt.Errorf("stored object %s: dims %v, want %v", o.name, dims, o.f.dims)
		}
		o.vals = vals
		eb, _, err := preprocess.Resolve(rig.p, device.Host, o.f.data, fzmod.Rel(relEB))
		if err != nil {
			return err
		}
		if i := fzmod.VerifyBound(o.f.data, vals, eb); i >= 0 {
			o.err = fmt.Errorf("stored object %s: value %d off by more than %g", o.name, i, eb)
		}
	}
	return nil
}

// start brings up the platform and server and stores the objects.
func (rig *serveRig) start() error {
	var decoded int64
	for _, f := range rig.bulk {
		decoded += int64(f.bytes()) * int64(len(presetKeys))
	}
	rig.p = fzmod.NewPlatform()
	// Half the decoded object bytes, so reads both hit the cache and decode.
	rig.srv = serve.New(rig.p, serve.Config{CacheBytes: decoded / 2})
	rig.ts = httptest.NewServer(rig.srv.Handler())
	c := rig.ts.Client()
	rig.objs = rig.objs[:0]
	for fi, f := range rig.bulk {
		for pi, key := range presetKeys {
			blob, _, err := post(c, compressURL(rig.ts.URL, f, pi, true), rig.bulkWire[fi], nil)
			if err != nil {
				return fmt.Errorf("compressing %s/%s: %w", f.name, key, err)
			}
			name := fmt.Sprintf("%s.%s", f.name, key)
			req, err := http.NewRequest(http.MethodPut, rig.ts.URL+"/v1/objects/"+name, bytes.NewReader(blob))
			if err != nil {
				return err
			}
			resp, err := c.Do(req)
			if err != nil {
				return fmt.Errorf("storing %s: %w", name, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				return fmt.Errorf("storing %s: status %d", name, resp.StatusCode)
			}
			rig.objs = append(rig.objs, storedObj{name: name, preset: pi, f: f, blob: blob})
		}
	}
	return nil
}

func (rig *serveRig) close() {
	if rig.ts != nil {
		rig.ts.Close()
		rig.srv.Close()
		rig.p.Close()
		rig.ts, rig.srv, rig.p = nil, nil, nil
	}
}

// regionSel draws a box over 1–2 consecutive chunks of an object: its
// slow-axis range starts in a random chunk and ends in the same or the
// next one; the other axes take a random range covering at least half.
func regionSel(rng *rand.Rand, d fzmod.Dims) fzmod.RegionSel {
	slow := d.Z
	if d.Z == 1 {
		slow = d.X
	}
	per := slow / objectChunks
	c0 := rng.Intn(objectChunks)
	c1 := c0
	if c0+1 < objectChunks && rng.Intn(2) == 1 {
		c1++
	}
	lo := c0*per + rng.Intn(per)
	hi := c1*per + 1 + rng.Intn(per)
	if hi <= lo {
		hi = lo + 1
	}
	span := func(n int) (int, int) {
		a := rng.Intn(n/2 + 1)
		return a, a + n/2 + rng.Intn(n-a-n/2+1)
	}
	sel := fzmod.FullRegion(d)
	if d.Z == 1 {
		sel.X0, sel.X1 = lo, hi
		return sel
	}
	sel.Z0, sel.Z1 = lo, hi
	sel.X0, sel.X1 = span(d.X)
	sel.Y0, sel.Y1 = span(d.Y)
	return sel
}

// requests generates n requests of the seeded mix.
func (rig *serveRig) requests(rng *rand.Rand, n int) []request {
	out := make([]request, n)
	for i := range out {
		switch r := rng.Intn(100); {
		case r < mixRegion:
			o := rng.Intn(len(rig.objs))
			out[i] = request{kind: reqRegion, obj: o, sel: regionSel(rng, rig.objs[o].f.dims), preset: rig.objs[o].preset}
		case r < mixRegion+mixSmall:
			out[i] = request{kind: reqSmall, input: rng.Intn(len(rig.pool)), preset: rng.Intn(len(presetKeys))}
		default:
			out[i] = request{kind: reqLarge, input: rng.Intn(len(rig.large))}
		}
	}
	return out
}

// outcome is one completed request as the client saw it.
type outcome struct {
	req     request
	start   time.Time
	latency time.Duration
	bytes   int           // raw field bytes compressed or served
	queue   time.Duration // server-side phases, from the X-Fzmod-*-Ns headers
	flush   time.Duration
	execute time.Duration
	batched bool
	err     error
	warmup  bool // from the discarded first round
}

// fire issues one request, checks its response and returns the outcome.
// The response body lands in buf, reused across the client's requests.
func (rig *serveRig) fire(c *http.Client, buf *bytes.Buffer, rq request) outcome {
	out := outcome{req: rq}
	var f field
	var url string
	var wire []byte
	switch rq.kind {
	case reqRegion:
		o := rig.objs[rq.obj]
		s := rq.sel
		url = fmt.Sprintf("%s/v1/objects/%s/region?sel=%d:%d,%d:%d,%d:%d", rig.ts.URL, o.name, s.X0, s.X1, s.Y0, s.Y1, s.Z0, s.Z1)
	case reqSmall:
		f, wire = rig.pool[rq.input], rig.poolWire[rq.input]
		url = compressURL(rig.ts.URL, f, rq.preset, false)
	case reqLarge:
		f, wire = rig.large[rq.input], rig.largeWire[rq.input]
		url = compressURL(rig.ts.URL, f, rq.preset, true)
	}
	t0 := time.Now()
	out.start = t0
	var body []byte
	var hdr http.Header
	var err error
	if rq.kind == reqRegion {
		body, hdr, err = get(c, url, buf)
	} else {
		body, hdr, err = post(c, url, wire, buf)
	}
	out.latency = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	if rq.kind == reqRegion {
		out.bytes = len(body)
		out.err = checkRegion(rig.objs[rq.obj], rq.sel, body)
		return out
	}
	out.bytes = f.bytes()
	out.queue = headerNs(hdr, "X-Fzmod-Queue-Ns")
	out.flush = headerNs(hdr, "X-Fzmod-Flush-Ns")
	out.execute = headerNs(hdr, "X-Fzmod-Execute-Ns")
	out.batched = hdr.Get("X-Fzmod-Batched") == "true"
	eb := rig.poolEB
	if rq.kind == reqLarge {
		eb = rig.largeEB
	}
	out.err = rig.checkCompressed(f, eb[rq.input], body)
	return out
}

func headerNs(h http.Header, name string) time.Duration {
	v, _ := strconv.ParseInt(h.Get(name), 10, 64)
	return time.Duration(v)
}

// checkCompressed decodes a compress response and checks the bound and
// dims. Compression is deterministic, so each distinct container is
// checked once and later copies share its verdict.
func (rig *serveRig) checkCompressed(f field, absEB float64, blob []byte) error {
	key := sha256.Sum256(blob)
	rig.mu.Lock()
	verdict, seen := rig.verified[key]
	rig.mu.Unlock()
	if seen {
		return verdict
	}
	vals, dims, err := fzmod.Decompress(rig.p, blob)
	switch {
	case err != nil:
		verdict = fmt.Errorf("decompressing the response for %s: %w", f.name, err)
	case dims != f.dims:
		verdict = fmt.Errorf("response for %s decodes to dims %v, want %v", f.name, dims, f.dims)
	default:
		if i := fzmod.VerifyBound(f.data, vals, absEB); i >= 0 {
			verdict = fmt.Errorf("response for %s: value %d off by more than %g", f.name, i, absEB)
		}
	}
	rig.mu.Lock()
	rig.verified[key] = verdict
	rig.mu.Unlock()
	return verdict
}

// checkRegion compares a region body with the same box of the object's
// direct decompress, bit for bit.
func checkRegion(o storedObj, s fzmod.RegionSel, body []byte) error {
	d := o.f.dims
	want := (s.X1 - s.X0) * (s.Y1 - s.Y0) * (s.Z1 - s.Z0) * 4
	if len(body) != want {
		return fmt.Errorf("region %v of %s: %d bytes, want %d", s, o.name, len(body), want)
	}
	pos := 0
	for z := s.Z0; z < s.Z1; z++ {
		for y := s.Y0; y < s.Y1; y++ {
			row := o.vals[(z*d.Y+y)*d.X:]
			for x := s.X0; x < s.X1; x++ {
				if binary.LittleEndian.Uint32(body[pos:]) != math.Float32bits(row[x]) {
					return fmt.Errorf("region %v of %s differs from the direct decompress at (%d,%d,%d)", s, o.name, x, y, z)
				}
				pos += 4
			}
		}
	}
	return nil
}

// drive runs the closed loop until the deadline: in each round both
// clients issue serveRoundRequests requests from their own seeded
// sequences, then the host reference is sampled with nothing in flight.
// Every outcome goes to sink; those of the first round, which warms up,
// are marked so their timings are left out.
func (rig *serveRig) drive(seed int64, deadline time.Time, sink func(outcome)) {
	clients := make([]*http.Client, serveClients)
	bufs := make([]bytes.Buffer, serveClients)
	seqs := make([][]request, serveClients)
	const seqLen = 1 << 14
	for i := range clients {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[i] = &http.Client{Transport: tr}
		seqs[i] = rig.requests(rand.New(rand.NewSource(seed*serveClients+int64(i))), seqLen)
	}
	next := 0
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if next+serveRoundRequests > seqLen {
			break
		}
		rig.h.tick(0)
		results := make([][]outcome, serveClients)
		var wg sync.WaitGroup
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for _, rq := range seqs[ci][next : next+serveRoundRequests] {
					results[ci] = append(results[ci], rig.fire(clients[ci], &bufs[ci], rq))
				}
			}(ci)
		}
		wg.Wait()
		next += serveRoundRequests
		for _, rs := range results {
			for _, o := range rs {
				o.warmup = round == 0
				sink(o)
			}
		}
	}
	rig.h.settle()
}

// serveRun is the end-to-end serve run's accounting.
type serveRun struct {
	rig     *serveRig
	latency series
	// compress classes: [preset] for 64 KiB inputs, and the 8 MiB class
	small      []series
	large      series
	smallBytes int
	largeBytes int
	read       []series // region reads per preset; readBytes parallel
	readBytes  [][]int

	attempted, failed int
	firstErr          error
}

func (sr *serveRun) take(o outcome) {
	h := sr.rig.h
	sr.attempted++
	if o.err != nil {
		sr.failed++
		if sr.firstErr == nil {
			sr.firstErr = o.err
		}
		return
	}
	if o.warmup {
		return
	}
	h.record(&sr.latency, o.latency)
	switch o.req.kind {
	case reqRegion:
		h.record(&sr.read[o.req.preset], o.latency)
		sr.readBytes[o.req.preset] = append(sr.readBytes[o.req.preset], o.bytes)
	case reqSmall:
		h.record(&sr.small[o.req.preset], o.latency)
		sr.smallBytes = o.bytes
	case reqLarge:
		h.record(&sr.large, o.latency)
		sr.largeBytes = o.bytes
	}
}

func runServe(seed int64, budget time.Duration, h *hostRef, rep *report) error {
	rig, err := newServeRig(h, bulkFields(seed))
	if err != nil {
		return err
	}
	defer rig.close()
	resetPeakRSS()
	if err := rig.setUp(serveSetupRepeats); err != nil {
		return err
	}
	sr := &serveRun{rig: rig, small: make([]series, len(presetKeys)), read: make([]series, len(presetKeys)), readBytes: make([][]int, len(presetKeys))}
	rig.drive(seed, time.Now().Add(budget), sr.take)
	sr.report(rep)
	return nil
}

func (sr *serveRun) report(out *report) {
	rig := sr.rig
	for pi, key := range presetKeys {
		var raw, stored int
		var psnr []float64
		for _, o := range rig.objs {
			if o.preset != pi {
				continue
			}
			raw += o.f.bytes()
			stored += len(o.blob)
			sr.attempted++
			q, err := fzmod.Evaluate(rig.p, o.f.data, o.vals)
			if err == nil {
				err = o.err
			}
			if err != nil {
				sr.failed++
				sr.firstErr = err
				continue
			}
			psnr = append(psnr, q.PSNR)
		}
		out.set("ratio."+key, float64(raw)/float64(stored))
		out.set("psnr_db."+key, finiteMean(psnr))

		// Compress: bytes over the sum of the classes' median latencies,
		// as for bulk; the 8 MiB class is compressed with Default.
		bytes := float64(sr.smallBytes)
		scaledMs, rawMs := median(sr.small[pi].scaled), median(sr.small[pi].raw)
		samples := append([]float64(nil), sr.small[pi].scaled...)
		if pi == 0 && sr.largeBytes > 0 {
			bytes += float64(sr.largeBytes)
			scaledMs += median(sr.large.scaled)
			rawMs += median(sr.large.raw)
			samples = append(samples, sr.large.scaled...)
		}
		out.timed("comp_gbs."+key, bytes/(scaledMs*1e6), bytes/(rawMs*1e6), samples)

		// Region reads vary in size and split into fast cache hits and slow
		// decodes, a mix no median is stable over: region bytes served over
		// the time spent serving them.
		out.timed("dec_gbs."+key, ratePerMs(sr.readBytes[pi], sr.read[pi].scaled), ratePerMs(sr.readBytes[pi], sr.read[pi].raw), sr.read[pi].scaled)
	}
	out.timed("p50_ms", quantile(sr.latency.scaled, 0.5), quantile(sr.latency.raw, 0.5), sr.latency.scaled)
	out.timed("p99_ms", quantile(sr.latency.scaled, 0.99), quantile(sr.latency.raw, 0.99), sr.latency.scaled)
	out.timed("setup_s", median(rig.setup.scaled)/1e3, median(rig.setup.raw)/1e3, rig.setup.scaled)
	out.attempted += sr.attempted
	out.failed += sr.failed
	if sr.firstErr != nil {
		out.errs = append(out.errs, sr.firstErr)
	}
}

// ratePerMs is the bytes over the sum of the times, in GB/s.
func ratePerMs(bytes []int, msSamples []float64) float64 {
	var b, t float64
	for i, m := range msSamples {
		b += float64(bytes[i])
		t += m
	}
	return b / (t * 1e6)
}

// post issues one POST and returns the body and headers, erroring on any
// status but 200. The body is read into buf, or a fresh buffer when buf
// is nil.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) ([]byte, http.Header, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	return readResponse(resp, err, "POST "+url, buf)
}

func get(c *http.Client, url string, buf *bytes.Buffer) ([]byte, http.Header, error) {
	resp, err := c.Get(url)
	return readResponse(resp, err, "GET "+url, buf)
}

// readResponse reads the body into buf, sized from Content-Length: the
// clients reuse one buffer each, so their garbage does not add collector
// cycles to the server's latencies.
func readResponse(resp *http.Response, err error, what string, buf *bytes.Buffer) ([]byte, http.Header, error) {
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength))
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, fmt.Errorf("%s: reading the body: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), resp.Header, nil
}

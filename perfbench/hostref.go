package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The reference loop's work: refChunks chunks, each an integer phase and
// a read-modify-write stream over its own slice of a buffer about as large
// as a bulk field. On shared hosts the slow periods that stretch fzmod's
// operations come both from CPU contention and from contention for the
// shared cache and memory bandwidth; a purely arithmetic loop tracked the
// operations' slowdowns only half as well.
const (
	refChunks     = 32
	refChunkIters = 1 << 16
	refChunkWords = 1 << 16 // 512 KiB; 16 MiB over all chunks
)

var refSink atomic.Uint64

// refLoop is the fixed host-speed reference. GOMAXPROCS goroutines, the
// library's worker width, pull its chunks from a shared counter, as
// fzmod's kernels share their blocks, so one slowed CPU stretches it by
// the lost capacity and not by the slowest goroutine's delay. The
// benchmark owns this code, so no change to fzmod moves it.
type refLoop struct {
	buf []uint64
}

func newRefLoop() *refLoop {
	r := &refLoop{buf: make([]uint64, refChunks*refChunkWords)}
	r.run() // fault the buffer in; the first pass is slower than any after
	return r
}

// run executes the reference once and returns its wall time.
func (r *refLoop) run() time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1) - 1; c < refChunks; c = next.Add(1) - 1 {
				x := uint64(c)*0x9E3779B97F4A7C15 + 1
				var hot [512]uint64
				for i := 0; i < refChunkIters; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					hot[x&511] += x
				}
				s := hot[x&511]
				buf := r.buf[c*refChunkWords : (c+1)*refChunkWords]
				for i := range buf {
					s += buf[i]
					buf[i] = s
				}
				refSink.Add(s)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// hostRef interleaves reference samples with the measured operations and
// scales each operation's wall time by the median of the refWindow
// samples taken just before it and the refWindow taken just after, so a
// timing reads as it would on a host whose reference loop takes
// nominalMs. This cancels most of the seconds-to-minutes speed drift of
// shared hosts, which moves raw medians by more than any regression
// bound; the median over four samples keeps the reference loop's own
// jitter out of the scaled times.
type hostRef struct {
	nominalMs float64
	loop      *refLoop
	samples   []float64 // every reference sample of the run, ms
	lastAt    time.Time
	pending   []pendingOp // ops recorded since the last settle
}

const refWindow = 2

type pendingOp struct {
	s     *series
	rawMs float64
	next  int // index of the first reference sample taken after the op
}

func newHostRef(nominalMs float64) *hostRef {
	return &hostRef{nominalMs: nominalMs, loop: newRefLoop()}
}

// tick takes a reference sample if the last one is older than maxAge
// (always when maxAge is 0).
func (h *hostRef) tick(maxAge time.Duration) {
	if !h.lastAt.IsZero() && time.Since(h.lastAt) < maxAge {
		return
	}
	h.samples = append(h.samples, ms(h.loop.run()))
	h.lastAt = time.Now()
}

// record adds one operation's wall time to s. Its scaled value lands at
// the next settle, once the samples after it have been taken.
func (h *hostRef) record(s *series, raw time.Duration) {
	s.raw = append(s.raw, ms(raw))
	h.pending = append(h.pending, pendingOp{s, ms(raw), len(h.samples)})
}

// settle takes closing samples and scales every operation recorded since
// the last settle; call it before reading a series' scaled samples.
func (h *hostRef) settle() {
	for i := 0; i < refWindow; i++ {
		h.tick(0)
	}
	for _, op := range h.pending {
		lo, hi := op.next-refWindow, op.next+refWindow
		if lo < 0 {
			lo = 0
		}
		op.s.scaled = append(op.s.scaled, op.rawMs*h.nominalMs/median(h.samples[lo:hi]))
	}
	h.pending = h.pending[:0]
}

// series is one timed quantity: its per-op samples as measured and scaled
// to reference host speed.
type series struct {
	raw, scaled []float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

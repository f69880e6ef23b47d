package main

import (
	"fmt"
	"math/rand"
	"sync"

	"fzmod"
	"fzmod/internal/sdrbench"
)

// relEB is the relative error bound every workload compresses at.
const relEB = 1e-4

// field is one input the workloads compress.
type field struct {
	name string
	data []float32
	dims fzmod.Dims
}

func (f field) bytes() int { return 4 * len(f.data) }

// bulkFields generates the paper's four datasets at Full scale — CESM-ATM
// 512×256×8, HACC 4 Mi particles, HURR 128×128×64 and NYX 128³, 32 MiB in
// all. The generators run from fixed seeds and the workload seed rolls
// each field's rows by its own offset, so different seeds give different
// inputs with the same statistics: drawing the generators' seeds from the
// workload seed instead moved the bulk ratios by ±4% from seed to seed,
// and the timings with them, enough to hide a regression.
func bulkFields(seed int64) []field {
	all := sdrbench.All()
	out := make([]field, len(all))
	rng := rand.New(rand.NewSource(seed))
	shifts := make([]int, len(all))
	for i, ds := range all {
		shifts[i] = rng.Intn(sdrbench.DefaultDims(ds).X)
	}
	var wg sync.WaitGroup
	for i, ds := range all {
		wg.Add(1)
		go func(i int, ds sdrbench.Dataset) {
			defer wg.Done()
			d := sdrbench.DefaultDims(ds)
			out[i] = field{name: ds.String(), data: rollRows(sdrbench.Generate(ds, d, int64(i)+1), d.X, shifts[i]), dims: d}
		}(i, ds)
	}
	wg.Wait()
	return out
}

// rollRows rotates every row of width x left by k, in place.
func rollRows(data []float32, x, k int) []float32 {
	tmp := make([]float32, k)
	for lo := 0; lo < len(data); lo += x {
		row := data[lo : lo+x]
		copy(tmp, row[:k])
		copy(row, row[k:])
		copy(row[x-k:], tmp)
	}
	return data
}

// smallTile is the 64 KiB (16 Ki float32) tile cut from each dataset,
// keeping its rank: 64×64×4 from the layered CESM field, 32×32×16 from
// the 3-D volumes, 16 Ki consecutive particles from HACC.
func smallTile(d fzmod.Dims) fzmod.Dims {
	switch {
	case d.Y == 1:
		return fzmod.Dims1(16 << 10)
	case d.Z <= 8:
		return fzmod.Dims3(64, 64, 4)
	default:
		return fzmod.Dims3(32, 32, 16)
	}
}

// tilesPerField × 4 datasets is the small workload's pool: 256 distinct
// fields, so no input repeats within a pass.
const tilesPerField = 64

// smallPool cuts tilesPerField evenly spaced tiles from each bulk field.
func smallPool(bulk []field) []field {
	var pool []field
	for _, f := range bulk {
		t := smallTile(f.dims)
		nx, ny, nz := f.dims.X/t.X, f.dims.Y/t.Y, f.dims.Z/t.Z
		total := nx * ny * nz
		for k := 0; k < tilesPerField; k++ {
			idx := k * total / tilesPerField
			ox, oy, oz := (idx%nx)*t.X, (idx/nx%ny)*t.Y, (idx/(nx*ny))*t.Z
			pool = append(pool, field{
				name: fmt.Sprintf("%s/%d", f.name, idx),
				data: cutBox(f, ox, oy, oz, t),
				dims: t,
			})
		}
	}
	return pool
}

// cutBox copies the t-shaped box at (ox, oy, oz) out of f.
func cutBox(f field, ox, oy, oz int, t fzmod.Dims) []float32 {
	out := make([]float32, 0, t.N())
	for z := oz; z < oz+t.Z; z++ {
		for y := oy; y < oy+t.Y; y++ {
			row := (z*f.dims.Y+y)*f.dims.X + ox
			out = append(out, f.data[row:row+t.X]...)
		}
	}
	return out
}

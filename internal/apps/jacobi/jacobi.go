// Package jacobi implements the paper's coarse-grained workload: an
// iterative Jacobi/SOR relaxation on a 512×512 grid of float64 values,
// partitioned in contiguous row bands with barrier synchronization between
// iterations. With 4096-byte pages one grid row is exactly one page, so
// processors share only the boundary rows of their bands — the "regular
// nearest-neighbor sharing" that makes all five protocols perform about
// the same on this program.
package jacobi

import (
	"fmt"

	"lrcdsm/internal/core"
)

// Params configures the workload.
type Params struct {
	N           int   // grid dimension (N×N)
	Iters       int   // relaxation sweeps
	PointCycles int64 // private computation charged per grid point
}

// Default returns the paper's configuration: a 512×512 grid.
func Default() Params { return Params{N: 512, Iters: 10, PointCycles: 10} }

// Small returns a scaled-down configuration for tests.
func Small() Params { return Params{N: 32, Iters: 4, PointCycles: 10} }

// App is one configured Jacobi instance.
type App struct {
	p   Params
	src core.Addr
	dst core.Addr
	bar int
}

// New returns a Jacobi instance with the given parameters.
func New(p Params) *App { return &App{p: p} }

// Name implements the harness App interface.
func (j *App) Name() string { return "jacobi" }

// Configure allocates and initializes the two grids: the top edge is held
// at 1.0, everything else starts at 0.
func (j *App) Configure(s core.Mem) {
	n := j.p.N
	j.src = s.AllocPage(n * n * 8)
	j.dst = s.AllocPage(n * n * 8)
	for c := 0; c < n; c++ {
		s.InitF64(j.src+core.Addr(8*c), 1.0)
		s.InitF64(j.dst+core.Addr(8*c), 1.0)
	}
	j.bar = s.NewBarrier()
}

// band returns the half-open interior row range assigned to processor id.
func (j *App) band(id, procs int) (int, int) {
	interior := j.p.N - 2
	lo := 1 + id*interior/procs
	hi := 1 + (id+1)*interior/procs
	return lo, hi
}

// Worker runs the relaxation on one processor.
func (j *App) Worker(p core.Worker) {
	n := j.p.N
	lo, hi := j.band(p.ID(), p.N())
	src, dst := j.src, j.dst
	at := func(base core.Addr, r, c int) core.Addr {
		return base + core.Addr(8*(r*n+c))
	}
	for it := 0; it < j.p.Iters; it++ {
		for r := lo; r < hi; r++ {
			for c := 1; c < n-1; c++ {
				v := 0.25 * (p.ReadF64(at(src, r-1, c)) +
					p.ReadF64(at(src, r+1, c)) +
					p.ReadF64(at(src, r, c-1)) +
					p.ReadF64(at(src, r, c+1)))
				p.WriteF64(at(dst, r, c), v)
				p.Compute(j.p.PointCycles)
			}
		}
		p.Barrier(j.bar)
		src, dst = dst, src
	}
}

// ResultRegions declares the final grid for the runtime invariant
// checker's memory-equivalence comparison. The parallel computation reads
// only barrier-ordered values, so the grid is bit-exact across schedules.
func (j *App) ResultRegions() []core.ResultRegion {
	final := j.src
	if j.p.Iters%2 == 1 {
		final = j.dst
	}
	return []core.ResultRegion{{Name: "grid", Base: final, Words: j.p.N * j.p.N}}
}

// Verify recomputes the relaxation sequentially and compares the final
// grid bit for bit (the parallel computation reads only barrier-ordered
// values, so results must be identical).
func (j *App) Verify(s core.Peeker) error {
	n := j.p.N
	a := make([][]float64, n)
	b := make([][]float64, n)
	for r := 0; r < n; r++ {
		a[r] = make([]float64, n)
		b[r] = make([]float64, n)
	}
	for c := 0; c < n; c++ {
		a[0][c] = 1.0
		b[0][c] = 1.0
	}
	for it := 0; it < j.p.Iters; it++ {
		for r := 1; r < n-1; r++ {
			for c := 1; c < n-1; c++ {
				b[r][c] = 0.25 * (a[r-1][c] + a[r+1][c] + a[r][c-1] + a[r][c+1])
			}
		}
		a, b = b, a
	}
	// After Iters swaps, `a` holds the final grid; the shared counterpart
	// is src if Iters is even, dst if odd — but both start identical and
	// swap in lockstep, so recompute which shared grid holds the result.
	final := j.src
	if j.p.Iters%2 == 1 {
		final = j.dst
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			got := s.PeekF64(final + core.Addr(8*(r*n+c)))
			if got != a[r][c] {
				return fmt.Errorf("jacobi: grid[%d][%d] = %v, want %v", r, c, got, a[r][c])
			}
		}
	}
	return nil
}

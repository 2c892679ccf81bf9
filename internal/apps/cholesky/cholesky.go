// Package cholesky implements the paper's fine-grained workload, an
// analogue of SPLASH Cholesky: parallel factorization of a sparse symmetric
// positive definite matrix using a task-queue approach. Locks are used to
// dequeue tasks as well as to protect access to columns of data; the sheer
// frequency of synchronization relative to computation (~4,000 cycles
// between off-node synchronization operations) is what limits speedup to
// ~1.3 regardless of protocol. The paper's `bcsstk14` input is substituted
// by a grid Laplacian of comparable order (see internal/spd).
package cholesky

import (
	"fmt"
	"math"

	"lrcdsm/internal/core"
	"lrcdsm/internal/spd"
)

// Params configures the workload.
type Params struct {
	Grid       int   // the matrix is the Grid×Grid Laplacian (Grid² columns)
	FlopCycles int64 // private computation per updated factor entry
	SpinCycles int64 // backoff between task-queue polls
}

// Default approximates the paper's bcsstk14 run (1806 columns): a 42×42
// grid gives 1764.
func Default() Params { return Params{Grid: 42, FlopCycles: 4, SpinCycles: 500} }

// Small returns a scaled-down configuration for tests.
func Small() Params { return Params{Grid: 8, FlopCycles: 4, SpinCycles: 500} }

// App is one configured Cholesky instance.
type App struct {
	p   Params
	a   *spd.Matrix
	sym *spd.Symbolic

	rowpos []map[int32]int32

	valsA  core.Addr // factor values, aligned with sym structure
	nmodA  core.Addr // per-column remaining update counts
	queueA core.Addr // ring buffer of ready columns
	headA  core.Addr
	tailA  core.Addr
	doneA  core.Addr

	qlock   int
	colLock int // base id; column j's lock is colLock + j
}

// New builds an instance: matrix, symbolic factorization, dependency counts.
func New(p Params) *App {
	a := &App{p: p}
	a.a = spd.GridLaplacian(p.Grid)
	a.sym = spd.Analyze(a.a)
	n := a.a.N
	a.rowpos = make([]map[int32]int32, n)
	for j := 0; j < n; j++ {
		a.rowpos[j] = a.sym.RowPos(j)
	}
	return a
}

// Name implements the harness App interface.
func (a *App) Name() string { return "cholesky" }

// N returns the matrix order.
func (a *App) N() int { return a.a.N }

// nmodInit returns the initial per-column dependency counts: the number of
// columns k < j whose completion updates column j (L[j][k] != 0).
func (a *App) nmodInit() []int64 {
	n := a.a.N
	counts := make([]int64, n)
	for k := 0; k < n; k++ {
		for p := a.sym.Colptr[k] + 1; p < a.sym.Colptr[k+1]; p++ {
			counts[a.sym.Rowidx[p]]++
		}
	}
	return counts
}

// Configure allocates and initializes the shared factor, dependency counts
// and task queue.
func (a *App) Configure(s core.Mem) {
	n := a.a.N
	a.valsA = s.AllocPage(a.sym.NNZ() * 8)
	// scatter A into the factor structure
	for j := 0; j < n; j++ {
		for p := a.a.Colptr[j]; p < a.a.Colptr[j+1]; p++ {
			off := a.rowpos[j][a.a.Rowidx[p]]
			s.InitF64(a.valsA+core.Addr(8*(int(a.sym.Colptr[j])+int(off))), a.a.Values[p])
		}
	}
	a.nmodA = s.AllocPage(n * 8)
	counts := a.nmodInit()
	ready := 0
	a.queueA = s.AllocPage(n * 8)
	for j := 0; j < n; j++ {
		s.InitI64(a.nmodA+core.Addr(8*j), counts[j])
		if counts[j] == 0 {
			s.InitI64(a.queueA+core.Addr(8*ready), int64(j))
			ready++
		}
	}
	a.headA = s.AllocPage(8)
	a.tailA = s.AllocPage(8)
	a.doneA = s.AllocPage(8)
	s.InitI64(a.tailA, int64(ready))
	a.qlock = s.NewLock()
	a.colLock = s.NewLocks(n)
}

func (a *App) valAddr(off int32) core.Addr { return a.valsA + core.Addr(8*off) }

// Worker factorizes columns from the shared task queue.
func (a *App) Worker(p core.Worker) {
	n := int64(a.a.N)
	for {
		// Dequeue a ready column (or observe completion).
		p.Lock(a.qlock)
		if p.ReadI64(a.doneA) >= n {
			p.Unlock(a.qlock)
			return
		}
		k := int64(-1)
		head := p.ReadI64(a.headA)
		if head < p.ReadI64(a.tailA) {
			k = p.ReadI64(a.queueA + core.Addr(8*head))
			p.WriteI64(a.headA, head+1)
		}
		p.Unlock(a.qlock)
		if k < 0 {
			p.Backoff(a.p.SpinCycles)
			continue
		}

		a.cdiv(p, int32(k))
		// Fan out updates to every dependent column.
		for q := a.sym.Colptr[k] + 1; q < a.sym.Colptr[k+1]; q++ {
			j := a.sym.Rowidx[q]
			p.Lock(a.colLock + int(j))
			a.cmod(p, j, int32(k))
			nm := p.ReadI64(a.nmodA+core.Addr(8*int64(j))) - 1
			p.WriteI64(a.nmodA+core.Addr(8*int64(j)), nm)
			p.Unlock(a.colLock + int(j))
			if nm == 0 {
				p.Lock(a.qlock)
				tail := p.ReadI64(a.tailA)
				p.WriteI64(a.queueA+core.Addr(8*tail), int64(j))
				p.WriteI64(a.tailA, tail+1)
				p.Unlock(a.qlock)
			}
		}
		p.Lock(a.qlock)
		p.WriteI64(a.doneA, p.ReadI64(a.doneA)+1)
		p.Unlock(a.qlock)
	}
}

// cdiv performs the column division on shared memory. The column is
// complete (all updates applied), and this worker exclusively owns it.
func (a *App) cdiv(p core.Worker, k int32) {
	p.Lock(a.colLock + int(k))
	base := a.sym.Colptr[k]
	d := math.Sqrt(p.ReadF64(a.valAddr(base)))
	p.WriteF64(a.valAddr(base), d)
	for q := base + 1; q < a.sym.Colptr[k+1]; q++ {
		p.WriteF64(a.valAddr(q), p.ReadF64(a.valAddr(q))/d)
		p.Compute(a.p.FlopCycles)
	}
	p.Unlock(a.colLock + int(k))
}

// cmod applies completed column k's update to column j. Caller holds
// column j's lock; column k is immutable after its cdiv.
func (a *App) cmod(p core.Worker, j, k int32) {
	var start int32 = -1
	for q := a.sym.Colptr[k]; q < a.sym.Colptr[k+1]; q++ {
		if a.sym.Rowidx[q] == j {
			start = q
			break
		}
	}
	ljk := p.ReadF64(a.valAddr(start))
	pos := a.rowpos[j]
	cbase := a.sym.Colptr[j]
	for q := start; q < a.sym.Colptr[k+1]; q++ {
		i := a.sym.Rowidx[q]
		dst := a.valAddr(cbase + pos[i])
		p.WriteF64(dst, p.ReadF64(dst)-ljk*p.ReadF64(a.valAddr(q)))
		p.Compute(a.p.FlopCycles)
	}
}

// ResultRegions declares the factor values for the runtime invariant
// checker: column updates commute up to floating-point rounding, so the
// comparison against the 1-processor reference uses the checker's
// relative float tolerance. The work queue and cursors are excluded —
// task assignment is schedule-dependent.
func (a *App) ResultRegions() []core.ResultRegion {
	return []core.ResultRegion{{Name: "factor", Base: a.valsA,
		Words: a.sym.NNZ(), Float: true}}
}

// Verify compares the shared factor against the sequential reference
// within a tolerance (parallel update order differs in rounding).
func (a *App) Verify(s core.Peeker) error {
	want := spd.Factor(a.a, a.sym)
	const tol = 1e-9
	for i, w := range want {
		got := s.PeekF64(a.valsA + core.Addr(8*i))
		if math.Abs(got-w) > tol*(1+math.Abs(w)) {
			return fmt.Errorf("cholesky: L value %d = %v, want %v", i, got, w)
		}
	}
	return nil
}

// Package harness builds, runs, verifies and reports the paper's
// experiments: one entry point per figure and table of the evaluation
// section (Figures 6–18, Tables 1–5), plus the message-classification
// statistics quoted in the text and the ablations called out in DESIGN.md.
package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"lrcdsm/internal/apps/cholesky"
	"lrcdsm/internal/apps/jacobi"
	"lrcdsm/internal/apps/taskqueue"
	"lrcdsm/internal/apps/tsp"
	"lrcdsm/internal/apps/water"
	"lrcdsm/internal/check"
	"lrcdsm/internal/core"
	"lrcdsm/internal/network"
)

// App is the interface every workload implements. Workloads are written
// against the engine-neutral core.Mem/core.Worker/core.Peeker interfaces,
// so the same App runs on the deterministic simulator (this harness) and
// on the live runtime (internal/live).
type App interface {
	Name() string
	Configure(s core.Mem)
	Worker(p core.Worker)
	Verify(s core.Peeker) error
}

// ResultApp is implemented by workloads that declare schedule-independent
// result regions for the runtime invariant checker's memory-equivalence
// comparison against a 1-processor reference run.
type ResultApp interface {
	App
	ResultRegions() []core.ResultRegion
}

// Scale selects problem sizes: the paper's sizes, a reduced size for
// benchmarks, or a minimal size for tests.
type Scale int

const (
	// ScalePaper uses the paper's inputs: Jacobi 512×512, TSP 18 cities,
	// Water 288 molecules × 2 steps, Cholesky ≈1806 columns.
	ScalePaper Scale = iota
	// ScaleBench uses reduced inputs with the same qualitative behaviour,
	// sized so a full protocol × processor sweep runs in seconds.
	ScaleBench
	// ScaleTest is minimal, for unit tests of the harness itself.
	ScaleTest
)

// ParseScale converts a name to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "paper":
		return ScalePaper, nil
	case "bench":
		return ScaleBench, nil
	case "test":
		return ScaleTest, nil
	}
	return 0, fmt.Errorf("harness: unknown scale %q", s)
}

// AppNames lists the workloads in the paper's order.
var AppNames = []string{"jacobi", "tsp", "water", "cholesky"}

// NewApp builds a workload at the given scale.
func NewApp(name string, scale Scale) (App, error) {
	switch name {
	case "jacobi":
		switch scale {
		case ScalePaper:
			return jacobi.New(jacobi.Default()), nil
		case ScaleBench:
			return jacobi.New(jacobi.Params{N: 128, Iters: 5, PointCycles: 10}), nil
		default:
			return jacobi.New(jacobi.Small()), nil
		}
	case "tsp":
		switch scale {
		case ScalePaper:
			return tsp.New(tsp.Default()), nil
		case ScaleBench:
			return tsp.New(tsp.Params{Cities: 12, PrefixDepth: 2, NodeCycles: 40, Seed: 1}), nil
		default:
			return tsp.New(tsp.Small()), nil
		}
	case "water":
		switch scale {
		case ScalePaper:
			return water.New(water.Default()), nil
		case ScaleBench:
			return water.New(water.Params{Molecules: 192, Steps: 1, Cutoff: 0.3, PairCycles: 8000, MoveCycles: 2000, Seed: 1}), nil
		default:
			return water.New(water.Small()), nil
		}
	case "cholesky":
		switch scale {
		case ScalePaper:
			return cholesky.New(cholesky.Default()), nil
		case ScaleBench:
			return cholesky.New(cholesky.Params{Grid: 16, FlopCycles: 4, SpinCycles: 500}), nil
		default:
			return cholesky.New(cholesky.Small()), nil
		}
	case "taskqueue":
		// Promoted from examples/taskqueue; not in AppNames because it
		// is this reproduction's own probe, not one of the paper's four
		// figure workloads.
		switch scale {
		case ScalePaper:
			return taskqueue.New(taskqueue.Default()), nil
		case ScaleBench:
			return taskqueue.New(taskqueue.Params{Tasks: 120, Grain: 10_000}), nil
		default:
			return taskqueue.New(taskqueue.Small()), nil
		}
	}
	return nil, fmt.Errorf("harness: unknown app %q", name)
}

// Spec describes one simulation run.
type Spec struct {
	App            string
	Scale          Scale
	Protocol       core.Protocol
	Procs          int
	Net            network.Params
	ClockMHz       float64
	PageSize       int
	OverheadFactor float64
	// Check enables the runtime invariant checker: the run is observed by
	// check.New and, for ResultApp workloads with more than one processor,
	// its final memory is compared against a 1-processor reference run.
	// Violations turn into a Run error.
	Check bool
}

// DefaultSpec returns the paper's base configuration for an app: 16
// processors at 40 MHz on the 100 Mbit/s ATM, 4096-byte pages, normal
// overhead.
func DefaultSpec(app string, scale Scale) Spec {
	return Spec{
		App:            app,
		Scale:          scale,
		Protocol:       core.LH,
		Procs:          16,
		Net:            network.ATMNet(100, core.DefaultClockMHz),
		ClockMHz:       core.DefaultClockMHz,
		PageSize:       core.DefaultPageSize,
		OverheadFactor: 1,
	}
}

// Result is the outcome of one run.
type Result struct {
	Spec  Spec
	Stats *core.RunStats
}

// Run executes one spec: build the system and workload, run, verify. With
// Spec.Check set, the run is additionally observed by the invariant
// checker and any violation is returned as an error.
func Run(spec Spec) (*Result, error) {
	if spec.Check {
		res, violations, err := CheckedRun(spec)
		if err != nil {
			return nil, err
		}
		if len(violations) > 0 {
			return nil, fmt.Errorf("harness: %s/%v/%dp: %d invariant violation(s), first: %s",
				spec.App, spec.Protocol, spec.Procs, len(violations), violations[0].String())
		}
		return res, nil
	}
	res, _, _, err := runSpec(spec, nil)
	return res, err
}

// runSpec builds the system and workload, runs, verifies, and returns the
// finished system and app alongside the result so callers can inspect
// final memory.
func runSpec(spec Spec, obs core.Observer) (*Result, *core.System, App, error) {
	cfg := core.DefaultConfig()
	cfg.Protocol = spec.Protocol
	cfg.Procs = spec.Procs
	cfg.Net = spec.Net
	cfg.Net.ClockMHz = spec.ClockMHz
	cfg.ClockMHz = spec.ClockMHz
	cfg.PageSize = spec.PageSize
	cfg.OverheadFactor = spec.OverheadFactor
	cfg.MaxSharedBytes = 64 << 20
	cfg.Observer = obs
	app, err := NewApp(spec.App, spec.Scale)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	app.Configure(sys)
	stats, err := sys.Run(func(p *core.Proc) { app.Worker(p) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: %s/%v/%dp: %w", spec.App, spec.Protocol, spec.Procs, err)
	}
	if err := app.Verify(sys); err != nil {
		return nil, nil, nil, fmt.Errorf("harness: %s/%v/%dp failed verification: %w", spec.App, spec.Protocol, spec.Procs, err)
	}
	return &Result{Spec: spec, Stats: stats}, sys, app, nil
}

// CheckedRun executes one spec under the runtime invariant checker and
// returns the run's violations: protocol-invariant breaches observed
// during the run plus, for ResultApp workloads with Procs > 1, any
// mismatch between the run's final memory and a 1-processor reference run
// over the app's declared result regions. An error means the run itself
// failed; violations are reported separately so callers can print all of
// them.
func CheckedRun(spec Spec) (*Result, []check.Violation, error) {
	chk := check.New(spec.Procs)
	res, sys, app, err := runSpec(spec, chk)
	if err != nil {
		return nil, nil, err
	}
	violations := chk.Violations()
	if ra, ok := app.(ResultApp); ok && spec.Procs > 1 {
		ref := spec
		ref.Procs = 1
		ref.Check = false
		_, refSys, _, err := runSpec(ref, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: reference run: %w", err)
		}
		violations = append(violations, check.CompareRegions(sys, refSys, ra.ResultRegions())...)
	}
	check.SortViolations(violations)
	return res, violations, nil
}

// Runner caches uniprocessor baselines so speedups across a sweep share
// the same denominators, and owns the worker pool that executes
// independent sweep cells concurrently. Each Run builds a private
// core.System, so cells only share the baseline cache, which is
// singleflight: concurrent requests for the same baseline wait for one
// run rather than stampeding.
type Runner struct {
	workers int
	check   bool
	mu      sync.Mutex
	bases   map[string]*baseCell
}

// baseCell is one memoized 1-processor baseline. The first requester runs
// it inside once; later requesters block on once.Do until it is filled.
type baseCell struct {
	once sync.Once
	res  *Result
	err  error
}

// NewRunner returns a runner with one worker per available CPU.
func NewRunner() *Runner { return NewRunnerN(0) }

// NewRunnerN returns a runner with the given number of workers; n <= 0
// selects runtime.GOMAXPROCS(0). With one worker every sweep runs
// serially on the calling goroutine.
func NewRunnerN(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: n, bases: make(map[string]*baseCell)}
}

// Workers returns the size of the runner's worker pool.
func (r *Runner) Workers() int { return r.workers }

// EnableCheck makes every subsequent run of this runner execute under the
// runtime invariant checker (Spec.Check). Call before the first run so
// memoized baselines are checked too.
func (r *Runner) EnableCheck() { r.check = true }

// baseKey deliberately excludes the protocol: a 1-processor run never
// communicates, so all protocols share one baseline per configuration.
func baseKey(s Spec) string {
	return fmt.Sprintf("%s|%d|%v|%.0f|%d|%.1f", s.App, s.Scale, s.Net.Kind, s.ClockMHz, s.PageSize, s.OverheadFactor)
}

// baseline returns the memoized 1-processor run for spec's configuration.
func (r *Runner) baseline(spec Spec) (*Result, error) {
	key := baseKey(spec)
	r.mu.Lock()
	cell, ok := r.bases[key]
	if !ok {
		cell = new(baseCell)
		r.bases[key] = cell
	}
	r.mu.Unlock()
	cell.once.Do(func() {
		bspec := spec
		bspec.Procs = 1
		bspec.Check = r.check
		cell.res, cell.err = Run(bspec)
	})
	return cell.res, cell.err
}

// Speedup runs the spec and returns result plus speedup relative to the
// memoized 1-processor run of the same configuration. The baseline is
// obtained first so that concurrent cells of a cold sweep block on one
// shared baseline run instead of each paying for the N-processor run
// before discovering the baseline is still missing.
func (r *Runner) Speedup(spec Spec) (*Result, float64, error) {
	base, err := r.baseline(spec)
	if err != nil {
		return nil, 0, err
	}
	if spec.Procs == 1 {
		// The baseline is this run (the simulation is deterministic), so
		// don't pay for it twice; restamp the spec since the baseline may
		// have been created under a different protocol's request.
		res := &Result{Spec: spec, Stats: base.Stats}
		return res, 1.0, nil
	}
	spec.Check = r.check
	res, err := Run(spec)
	if err != nil {
		return nil, 0, err
	}
	return res, float64(base.Stats.Cycles) / float64(res.Stats.Cycles), nil
}

// RunCells executes jobs 0..n-1 on the runner's worker pool and returns
// the lowest-indexed error, if any. Jobs must be independent; callers
// assemble results into tables afterwards, indexed by job number, so
// output order never depends on completion order. With one worker (or a
// single job) everything runs serially on the calling goroutine.
func (r *Runner) RunCells(n int, job func(i int) error) error {
	w := r.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Table is a rendered experiment: a title, column headers, and rows of
// cells (first cell of each row is its label).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Cell retrieves a cell by row label and column name ("" if absent).
func (t *Table) Cell(rowLabel, col string) string {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		return ""
	}
	for _, row := range t.Rows {
		if row[0] == rowLabel && ci < len(row) {
			return row[ci]
		}
	}
	return ""
}

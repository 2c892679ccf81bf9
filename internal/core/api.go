package core

// The interfaces below decouple the workloads from the simulator so the
// same application code runs on both execution engines: the deterministic
// simulator (core.System / core.Proc) and the live runtime
// (live.Cluster / node.Node). They cover exactly the operations the four
// paper workloads use; both engines satisfy them, checked by the
// compile-time assertions at the bottom.

// Mem is the pre-run configuration surface of a DSM machine: shared-memory
// allocation, initial-image stores, and synchronization-object allocation.
// All calls must happen before the machine runs.
type Mem interface {
	// Alloc reserves n bytes of shared memory (8-byte aligned).
	Alloc(n int) Addr
	// AllocPage reserves n bytes starting on a fresh page boundary.
	AllocPage(n int) Addr
	// InitF64/InitI64/InitU64 store into the initial shared-memory image.
	InitF64(a Addr, v float64)
	InitI64(a Addr, v int64)
	InitU64(a Addr, v uint64)
	// NewLock allocates one lock; NewLocks allocates n with consecutive
	// ids, returning the first. NewBarrier allocates a global barrier.
	NewLock() int
	NewLocks(n int) int
	NewBarrier() int
	// Procs returns the number of processors (nodes) the machine runs.
	Procs() int
}

// Worker is the per-processor execution surface handed to application
// workers: shared-memory access and synchronization.
type Worker interface {
	// ID returns the processor's id in [0, N); N the processor count.
	ID() int
	N() int
	// Typed shared-memory accessors.
	ReadF64(a Addr) float64
	WriteF64(a Addr, v float64)
	ReadI64(a Addr) int64
	WriteI64(a Addr, v int64)
	ReadU64(a Addr) uint64
	WriteU64(a Addr, v uint64)
	// Compute charges n cycles of private computation (a no-op on engines
	// that run in real time).
	Compute(n int64)
	// Backoff is Compute(n) for a worker that polled shared state, found
	// nothing, and will poll again. The simulator charges it as Compute;
	// the live runtime, which cannot tell a futile poll from useful work,
	// may park the worker until something it could read has changed.
	Backoff(n int64)
	// Lock/Unlock acquire and release an exclusive lock; Barrier joins a
	// global barrier episode.
	Lock(id int)
	Unlock(id int)
	Barrier(id int)
}

// Peeker reads the authoritative final memory image after a run; used by
// workload verification and the result-region equivalence checker.
type Peeker interface {
	PeekF64(a Addr) float64
	PeekI64(a Addr) int64
	PeekU64(a Addr) uint64
}

// Procs returns the number of simulated processors.
func (s *System) Procs() int { return s.cfg.Procs }

var (
	_ Mem    = (*System)(nil)
	_ Peeker = (*System)(nil)
	_ Worker = (*Proc)(nil)
)

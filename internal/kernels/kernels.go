// Package kernels implements the paper's 20 application kernels (22 rows of
// Table III, counting both qsort and radix datasets) against the simulated
// work-stealing runtime.
//
// Every kernel performs the real algorithm on PBBS-style generated inputs
// and charges data-dependent instruction costs while it computes, so task
// counts, task-size distributions and load imbalance emerge from the
// algorithm and the data exactly as they do in the paper. Results are
// validated against straightforward serial references (Workload.Check).
//
// Input sizes are scaled down ~10x from the paper (a few million simulated
// instructions per kernel instead of tens of millions) to keep the
// discrete-event simulation fast; the Scale knob restores larger runs.
package kernels

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"aaws/internal/wsrt"
)

// Abstract operation costs in simulated instructions. These approximate a
// 32-bit RISC ISA (loads, stores, ALU, branch) for each kernel-level
// operation and put the scaled-down kernels in the paper's
// instructions-per-task regime.
const (
	costCmp     = 8  // load+load+compare+branch
	costCmpStr  = 6  // per-character string comparison step
	costSwap    = 12 // two loads + two stores + index math
	costArith   = 5  // integer op on array elements
	costFloat   = 10 // FP op incl. operand loads
	costFloatFn = 60 // exp/log/sqrt/pow library call
	costHash    = 26 // hash + probe step
	costVisit   = 14 // per-edge graph visit (load neighbor, test, branch)
	costWrite   = 6  // store with index math
	costNode    = 30 // allocate/init a small record
)

// Input is one kernel's prepared input for a (seed, scale): the generated
// data and, computed on first use, the serial reference Check compares
// against. An Input is immutable once prepared, so any number of runs may
// share it, in turn or at once; a batch prepares one per (kernel, seed,
// scale) and runs every variant cell on it.
//
// New returns a Workload for one run. The Workload owns everything its Run
// writes — output buffers, and a private copy of any input data Run
// reorders or updates in place — and reads the rest from the Input.
type Input interface {
	New() Workload
}

// Workload is one run's state on a shared Input. Run executes the parallel
// version on the simulated runtime; Check validates the parallel result
// against the Input's serial reference. A Workload is single-use; call
// Input.New again for the next run.
type Workload interface {
	Run(r *wsrt.Run)
	Check() error
}

// lazy defers a Check-only serial reference. Sweeps run with Check=false
// and must not pay for references they never read — several references
// (matmul's serial product, nbody's direct sums, suffix arrays) cost as
// much as the workload itself. The function runs at most once, on first
// get, and may read only the Input it belongs to, which Run never writes.
// Concurrent gets are safe. Laziness never touches the simulated schedule:
// references are host-side bookkeeping, and the instruction costs charged
// during Run are computed by Run itself.
type lazy[T any] struct {
	once sync.Once
	f    func() T
	v    T
}

// deferred wraps f as a lazily-computed value.
func deferred[T any](f func() T) *lazy[T] { return &lazy[T]{f: f} }

// get computes the value on first use and caches it.
func (l *lazy[T]) get() T {
	l.once.Do(func() {
		l.v = l.f()
		l.f = nil
	})
	return l.v
}

// Kernel is a registry entry with the paper's Table III metadata.
type Kernel struct {
	Name  string
	Suite string // pbbs | cilk | parsec | uts
	Input string // input descriptor, as in Table III
	PM    string // parallelization method: p | np | rss | p,rss
	Alpha float64
	Beta  float64 // big-over-little serial speedup (O3 column)
	MPKI  float64 // reported L2 misses per kilo-instruction
	// Extension marks kernels beyond the paper's Table III (the lock and
	// loop-scheduling families). Extensions resolve by name through Get but
	// are excluded from All/Names so the default sweep matrix — and every
	// fingerprint pinned over it — keeps its original 22 rows.
	Extension bool
	// Prepare generates the kernel's input. scale multiplies the default
	// input size (1.0 = this repo's default, ~10x smaller than the paper).
	Prepare func(seed uint64, scale float64) Input
}

// New prepares an input and one workload on it.
func (k *Kernel) New(seed uint64, scale float64) Workload {
	return k.Prepare(seed, scale).New()
}

var registry []*Kernel
var byName = map[string]*Kernel{}

// register adds a kernel; called from init() in each kernel file.
func register(k *Kernel) {
	if _, dup := byName[k.Name]; dup {
		panic("kernels: duplicate " + k.Name)
	}
	registry = append(registry, k)
	byName[k.Name] = k
}

// All returns the paper's Table III kernels in registration order,
// excluding extensions.
func All() []*Kernel {
	out := make([]*Kernel, 0, len(registry))
	for _, k := range registry {
		if !k.Extension {
			out = append(out, k)
		}
	}
	return out
}

// AllWithExtensions returns every registered kernel, extensions included.
func AllWithExtensions() []*Kernel { return registry }

// Extensions returns the extension kernels in registration order.
func Extensions() []*Kernel {
	out := make([]*Kernel, 0, 8)
	for _, k := range registry {
		if k.Extension {
			out = append(out, k)
		}
	}
	return out
}

// Get returns the kernel named name (extensions included), or nil.
func Get(name string) *Kernel { return byName[name] }

// Names returns the Table III kernel names in order (no extensions).
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, k := range all {
		out[i] = k.Name
	}
	return out
}

// leafResult is one leaf's result of a ParallelFor or ParallelRange. Leaves
// come from recursive binary splitting, so a leaf is identified by its
// (unique) start index lo, not by lo/grain.
type leafResult[T any] struct {
	lo int
	v  T
}

// inOrder sorts leaf results by start index: the order an array indexed
// by leaf start would hold them in, without allocating one slot per
// element.
func inOrder[T any](rs []leafResult[T]) []leafResult[T] {
	slices.SortFunc(rs, func(a, b leafResult[T]) int { return a.lo - b.lo })
	return rs
}

// scaled applies the size multiplier with a sane floor.
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 16 {
		v = 16
	}
	return v
}

// checkEqualInt32 compares two int32 slices.
func checkEqualInt32(name string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: element %d: got %d want %d", name, i, got[i], want[i])
		}
	}
	return nil
}

// checkEqualF64 compares two float64 slices exactly (deterministic
// computations must agree bit-for-bit).
func checkEqualF64(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: element %d: got %g want %g", name, i, got[i], want[i])
		}
	}
	return nil
}

// sortedCopyF64 returns a sorted copy (serial reference for sorts).
func sortedCopyF64(in []float64) []float64 {
	out := append([]float64(nil), in...)
	sort.Float64s(out)
	return out
}

// sortedCopyInt32 returns a sorted copy.
func sortedCopyInt32(in []int32) []int32 {
	out := append([]int32(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedCopyStr returns a sorted copy.
func sortedCopyStr(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// strLess reports whether a < b, together with the charged cost of the
// comparison (shared prefix length + 1 characters inspected), in one pass.
func strLess(a, b string) (bool, float64) {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	cost := float64((i + 1) * costCmpStr)
	if i < n {
		return a[i] < b[i], cost
	}
	return len(a) < len(b), cost
}

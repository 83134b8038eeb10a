package model

import (
	"fmt"
	"strings"

	"aaws/internal/vf"
)

// LUT maps activity information to operating voltages, as consumed by the
// DVFS controller (Section III-A). The paper indexes its table by (#active
// big, #active little); here the index is the per-class activity vector of
// any number of classes, flattened in mixed radix with class 0 most
// significant, and each entry holds one voltage per class. The paper's 4B4L
// table has 5x5 = 25 entries of (VBig, VLit).
type LUT struct {
	// Counts holds the per-class core counts (radix c is Counts[c]+1).
	Counts []int
	// Entries[Index(act)][c] is the voltage of every active class-c core
	// when act[c] cores of each class c are active.
	Entries [][]float64
	// SerialSprint, when set, overrides the table during a runtime-flagged
	// serial region: the single active core runs at SerialV.
	SerialSprint bool
	SerialV      float64
	// RestInactive mirrors the generation mode: whether inactive cores are
	// rested at VMin (work-sprinting) or left spinning at nominal.
	RestInactive bool
	// VRest is the voltage commanded for inactive cores (VMin when
	// RestInactive, VNominal otherwise).
	VRest float64
}

// Index flattens an activity vector (clamped into range) to an entry index.
func (t *LUT) Index(act []int) int {
	idx := 0
	for c, n := range act {
		if n < 0 {
			n = 0
		}
		if n > t.Counts[c] {
			n = t.Counts[c]
		}
		idx = idx*(t.Counts[c]+1) + n
	}
	return idx
}

// Mode selects which runtime variant a lookup table implements.
type Mode int

const (
	// ModeNominal pins every core at V_N regardless of activity (the
	// asymmetry-oblivious baseline, before serial-sprinting).
	ModeNominal Mode = iota
	// ModePacing applies the marginal-utility point only when every core
	// is active (work-pacing, HP region); other entries stay nominal and
	// waiting cores keep spinning at V_N.
	ModePacing
	// ModePacingSprinting applies the marginal-utility point to every
	// activity combination with inactive cores rested at VMin
	// (work-pacing + work-sprinting).
	ModePacingSprinting
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNominal:
		return "nominal"
	case ModePacing:
		return "pacing"
	default:
		return "pacing+sprinting"
	}
}

// GenerateLUT builds the DVFS lookup table for the paper's big.LITTLE
// system (class 0 big, class 1 little), solving each entry with Optimize,
// the paper's reference solver (its feasible point only: the table never
// reads the unconstrained optimum). All variants enable serial-sprinting (the
// aggressive baseline of Section III-C): during a flagged serial region the
// active core sprints to VMax.
func GenerateLUT(c Config, mode Mode) *LUT {
	return fillLUT([]int{c.NBig, c.NLit}, c.Params.VF, mode, func(act []int, rest bool) []float64 {
		r := c.optimize(act[0], act[1], rest, false)
		return []float64{r.Feasible.VBig, r.Feasible.VLit}
	})
}

// GenerateNWayLUT builds the DVFS lookup table for an N-way system, solving
// each entry with OptimizeN. Table semantics match GenerateLUT.
func GenerateNWayLUT(c NConfig, mode Mode) *LUT {
	return fillLUT(c.Counts(), c.Classes[0].Params.VF, mode, func(act []int, rest bool) []float64 {
		return OptimizeN(c, act, rest).Feasible.V
	})
}

// fillLUT tabulates a variant over every activity combination of counts.
// solve returns the per-class feasible voltages for one activity vector
// (rest: inactive cores rest at VMin rather than spin at nominal). Pacing
// solves only the all-active entry; pacing+sprinting solves every entry with
// something active and pins idle classes at VMin, so the controller always
// has a defined target for every core.
func fillLUT(counts []int, vm vf.Model, mode Mode, solve func(act []int, rest bool) []float64) *LUT {
	t := &LUT{
		Counts:       counts,
		SerialSprint: true,
		SerialV:      vm.VMax,
		RestInactive: mode == ModePacingSprinting,
		VRest:        vf.VNominal,
	}
	if t.RestInactive {
		t.VRest = vm.VMin
	}
	k := len(counts)
	size := 1
	for _, n := range counts {
		size *= n + 1
	}
	flat := make([]float64, size*k)
	for i := range flat {
		flat[i] = vf.VNominal
	}
	t.Entries = make([][]float64, size)
	act := make([]int, k)
	for idx := range t.Entries {
		entry := flat[idx*k : (idx+1)*k : (idx+1)*k]
		t.Entries[idx] = entry
		// Decode idx into the activity vector (class 0 most significant,
		// matching Index).
		rem, total, full := idx, 0, true
		for c := k - 1; c >= 0; c-- {
			act[c] = rem % (counts[c] + 1)
			rem /= counts[c] + 1
			total += act[c]
			full = full && act[c] == counts[c]
		}
		switch mode {
		case ModePacing:
			if full {
				copy(entry, solve(act, false))
			}
		case ModePacingSprinting:
			if total > 0 {
				copy(entry, solve(act, true))
			}
			for c, n := range act {
				if n == 0 {
					entry[c] = vm.VMin
				}
			}
		}
	}
	return t
}

// String renders the table for diagnostics and the dvfs-explorer example:
// one row per class-0 activity count, one column per activity combination
// of the remaining classes (in mixed radix; for the paper's table, the
// number of active little cores).
func (t *LUT) String() string {
	var b strings.Builder
	shape := make([]string, len(t.Counts))
	for c, n := range t.Counts {
		shape[c] = fmt.Sprint(n)
	}
	label := strings.Join(shape, "/") + " cores"
	if len(t.Counts) == 2 {
		label = fmt.Sprintf("%dB%dL", t.Counts[0], t.Counts[1])
	}
	fmt.Fprintf(&b, "DVFS LUT (%s, rest=%v, serial sprint to %.2fV)\n", label, t.RestInactive, t.SerialV)
	rows := t.Counts[0] + 1
	cols := len(t.Entries) / rows
	fmt.Fprintf(&b, "%8s", "bigA\\litA")
	for j := 0; j < cols; j++ {
		fmt.Fprintf(&b, "%14d", j)
	}
	b.WriteByte('\n')
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%8d ", i)
		for _, e := range t.Entries[i*cols : (i+1)*cols] {
			b.WriteString("  (")
			for c, v := range e {
				if c > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%.2f", v)
			}
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

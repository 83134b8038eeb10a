package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"aaws/internal/kernels"
	"aaws/internal/machine"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/trace"
)

// CoreClass is one class of an N-way heterogeneous topology, ordered
// fastest first (class 0 hosts logical thread 0). Speed is the class's IPC
// as a multiple of the paper's baseline little core (the role beta plays
// for big cores); Power is its dynamic-power coefficient (alpha's role).
// Zero values resolve to defaults: class 0 inherits the kernel's Table III
// beta/alpha, the last class is the baseline little core (1/1), and
// intermediate classes must be explicit. A 2-entry topology resolving to
// exactly (beta, alpha)/(1, 1) is the paper's big.LITTLE pair and resolves
// to the same classes as the equivalent System or NBig/NLit spec, so it
// reproduces their results bit for bit.
//
// Every field carries omitempty so specs without a topology serialize to
// the same canonical bytes — and therefore the same content hashes — as
// before the field existed.
type CoreClass struct {
	Name  string  `json:",omitempty"`
	Count int     `json:",omitempty"`
	Speed float64 `json:",omitempty"`
	Power float64 `json:",omitempty"`
}

// Topology shape limits: enough room for any plausible asymmetric SoC
// while keeping LUT sizes (product of counts+1) and validation bounded.
const (
	maxTopologyClasses = 8
	maxTopologyCores   = 64
)

// topology is a spec's core mix resolved against its kernel: the ordered
// machine class list every layer runs on, the parameters the paper's
// 2-class table is generated from, and the canonical signature (the
// partition and LUT cache key component).
type topology struct {
	classes []machine.ClassConfig
	// lutParams is the paper pair's table parameters: the kernel's own, or
	// the spec's LUTAlpha/LUTBeta estimates. Unused on Big-encoded classes.
	lutParams power.Params
	sig       string
}

// resolveTopology resolves a spec's core mix, whichever way it is given,
// into one ordered class list. System, NBig/NLit, and a 2-entry Topology
// resolving to exactly the kernel's (beta, alpha)/(1, 1) pair all become
// the paper's big.LITTLE classes under the kernel's parameters — so they
// share one machine, table and partition, bit for bit. Every other
// topology becomes classes each encoded as power.Big of its own parameters.
func resolveTopology(spec Spec, k *kernels.Kernel) (topology, error) {
	p := power.DefaultParams().WithAlphaBeta(k.Alpha, k.Beta)
	if len(spec.Topology) == 0 {
		nBig, nLit := spec.System.Counts()
		if spec.NBig > 0 {
			nBig, nLit = spec.NBig, spec.NLit
		}
		lutParams := p
		if spec.LUTAlpha > 0 && spec.LUTBeta > 0 {
			lutParams = p.WithAlphaBeta(spec.LUTAlpha, spec.LUTBeta)
		}
		return pairTopology(p, lutParams, nBig, nLit), nil
	}

	topo := spec.Topology
	if len(topo) > maxTopologyClasses {
		return topology{}, fmt.Errorf("core: topology has %d classes (max %d)", len(topo), maxTopologyClasses)
	}
	total := 0
	speeds := make([]float64, len(topo))
	powers := make([]float64, len(topo))
	for i, cl := range topo {
		if cl.Count < 1 {
			return topology{}, fmt.Errorf("core: topology class %d has count %d (need >= 1)", i, cl.Count)
		}
		total += cl.Count
		s, pw := cl.Speed, cl.Power
		switch {
		case i == 0:
			if s == 0 {
				s = k.Beta
			}
			if pw == 0 {
				pw = k.Alpha
			}
		case i == len(topo)-1:
			if s == 0 {
				s = 1
			}
			if pw == 0 {
				pw = 1
			}
		default:
			if s == 0 || pw == 0 {
				return topology{}, fmt.Errorf("core: topology class %d needs explicit speed and power (only the first and last class have defaults)", i)
			}
		}
		if s < 0 || pw < 0 || math.IsInf(s, 0) || math.IsInf(pw, 0) || math.IsNaN(s) || math.IsNaN(pw) {
			return topology{}, fmt.Errorf("core: topology class %d has invalid speed/power %g/%g", i, cl.Speed, cl.Power)
		}
		speeds[i], powers[i] = s, pw
	}
	if total > maxTopologyCores {
		return topology{}, fmt.Errorf("core: topology has %d cores (max %d)", total, maxTopologyCores)
	}
	for i := 1; i < len(speeds); i++ {
		if speeds[i] > speeds[i-1] {
			return topology{}, fmt.Errorf("core: topology classes must be ordered fastest first (class %d speed %g > class %d speed %g)",
				i, speeds[i], i-1, speeds[i-1])
		}
	}
	if len(topo) == 2 && speeds[0] == k.Beta && powers[0] == k.Alpha && speeds[1] == 1 && powers[1] == 1 {
		return pairTopology(p, p, topo[0].Count, topo[1].Count), nil
	}

	t := topology{classes: make([]machine.ClassConfig, len(topo))}
	var sig strings.Builder
	for i := range topo {
		// Each class becomes the power.Big side of its own parameter set:
		// IPC(Big) = speed, Alpha = power, and the leakage current derives
		// from the class's own nominal dynamic power (the same lambda rule
		// the paper applies to its big core).
		t.classes[i] = machine.ClassConfig{
			Count:  topo[i].Count,
			Params: power.DefaultParams().WithAlphaBeta(powers[i], speeds[i]),
			Class:  power.Big,
		}
		if i > 0 {
			sig.WriteByte(',')
		}
		sig.WriteString(strconv.Itoa(topo[i].Count))
		sig.WriteByte('x')
		sig.WriteString(strconv.FormatFloat(speeds[i], 'g', -1, 64))
		sig.WriteByte('/')
		sig.WriteString(strconv.FormatFloat(powers[i], 'g', -1, 64))
	}
	t.sig = sig.String()
	return t, nil
}

// pairTopology is the paper's big.LITTLE mix under machine parameters p,
// with its table generated from lutParams. The signature names the table
// parameters (the machine's follow from the kernel, which partitions key
// separately) and, with its "B", cannot collide with an N-way signature.
func pairTopology(p, lutParams power.Params, nBig, nLit int) topology {
	return topology{
		classes:   machine.BigLittle(p, nBig, nLit),
		lutParams: lutParams,
		sig: strconv.Itoa(nBig) + "B" + strconv.Itoa(nLit) + "L@" +
			strconv.FormatFloat(lutParams.Alpha, 'g', -1, 64) + "/" +
			strconv.FormatFloat(lutParams.Beta, 'g', -1, 64),
	}
}

// numCores returns the topology's total core count.
func (t topology) numCores() int {
	n := 0
	for _, cl := range t.classes {
		n += cl.Count
	}
	return n
}

// paired reports whether the classes are the paper's big.LITTLE pair
// rather than Big-encoded N-way classes.
func (t topology) paired() bool { return t.classes[len(t.classes)-1].Class == power.Little }

// generateLUT builds the DVFS table for the topology. The paper's pair
// keeps Optimize, its reference solver; other mixes use OptimizeN, whose
// leakage encoding differs (see model/nway.go).
func (t topology) generateLUT(mode model.Mode) *model.LUT {
	if t.paired() {
		return model.GenerateLUT(model.Config{Params: t.lutParams, NBig: t.classes[0].Count, NLit: t.classes[1].Count}, mode)
	}
	cls := make([]model.NClass, len(t.classes))
	for i, cl := range t.classes {
		cls[i] = model.NClass{Count: cl.Count, Params: cl.Params}
	}
	return model.GenerateNWayLUT(model.NConfig{Classes: cls}, mode)
}

// trackerClasses maps cores onto the 2-class region tracker: the fastest
// class plays "big", everything else "little".
func (t topology) trackerClasses() []power.CoreClass {
	cls := make([]power.CoreClass, 0, t.numCores())
	for rank, cl := range t.classes {
		class := power.Little
		if rank == 0 {
			class = power.Big
		}
		for i := 0; i < cl.Count; i++ {
			cls = append(cls, class)
		}
	}
	return cls
}

// targetPower is the tuner's power budget: the nominal all-cores-busy
// power (equation 6), summed class by class.
func (t topology) targetPower() float64 {
	total := 0.0
	for _, cl := range t.classes {
		total += float64(cl.Count) * cl.Params.NominalPower(cl.Class)
	}
	return total
}

// CoreNames labels a spec's cores in machine order for activity profiles
// and traces: the paper's B0..Bn, L0..Ln on a big.LITTLE mix, and C<r>.<i>
// (class rank r, index i within the class) on an N-way topology.
func CoreNames(spec Spec) ([]string, error) {
	k := kernels.Get(spec.Kernel)
	if k == nil {
		return nil, fmt.Errorf("core: unknown kernel %q", spec.Kernel)
	}
	t, err := resolveTopology(spec, k)
	if err != nil {
		return nil, err
	}
	if t.paired() {
		return trace.CoreNames(t.classes[0].Count, t.classes[1].Count), nil
	}
	names := make([]string, 0, t.numCores())
	for rank, cl := range t.classes {
		for i := 0; i < cl.Count; i++ {
			names = append(names, "C"+strconv.Itoa(rank)+"."+strconv.Itoa(i))
		}
	}
	return names, nil
}

// ParseTopology parses the CLI form of a topology: comma-separated classes
// "COUNT[xSPEED/POWER]", fastest first, e.g. "1x4/3,2x2.5/1.8,4" (a bare
// COUNT leaves speed/power to the positional defaults). It returns the
// unresolved class list; kernel-dependent defaults apply at run time.
func ParseTopology(s string) ([]CoreClass, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("core: empty topology")
	}
	parts := strings.Split(s, ",")
	out := make([]CoreClass, 0, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		countStr, rest, hasSpec := strings.Cut(part, "x")
		count, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil {
			return nil, fmt.Errorf("core: topology class %d: bad count %q", i, countStr)
		}
		cl := CoreClass{Count: count}
		if hasSpec {
			speedStr, powerStr, hasPower := strings.Cut(rest, "/")
			cl.Speed, err = strconv.ParseFloat(strings.TrimSpace(speedStr), 64)
			if err != nil {
				return nil, fmt.Errorf("core: topology class %d: bad speed %q", i, speedStr)
			}
			if hasPower {
				cl.Power, err = strconv.ParseFloat(strings.TrimSpace(powerStr), 64)
				if err != nil {
					return nil, fmt.Errorf("core: topology class %d: bad power %q", i, powerStr)
				}
			}
		}
		out = append(out, cl)
	}
	return out, nil
}

// FormatTopology renders a class list back to the CLI form parsed by
// ParseTopology (zero speed/power prints as a bare count).
func FormatTopology(topo []CoreClass) string {
	var b strings.Builder
	for i, cl := range topo {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(cl.Count))
		if cl.Speed != 0 || cl.Power != 0 {
			b.WriteByte('x')
			b.WriteString(strconv.FormatFloat(cl.Speed, 'g', -1, 64))
			b.WriteByte('/')
			b.WriteString(strconv.FormatFloat(cl.Power, 'g', -1, 64))
		}
	}
	return b.String()
}

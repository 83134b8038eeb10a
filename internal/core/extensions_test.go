package core

import (
	"testing"

	"aaws/internal/wsrt"
)

// TestAdaptiveDVFSRecoversMiscalibration: generate the offline LUT with a
// near-homogeneous (badly wrong) alpha/beta estimate, so work-pacing does
// essentially nothing, then check the counter-driven tuner claws back a
// useful fraction of the lost performance (the paper's future-work
// adaptive controller).
func TestAdaptiveDVFSRecoversMiscalibration(t *testing.T) {
	for _, kernel := range []string{"cilksort", "bscholes"} {
		spec := DefaultSpec(kernel, Sys4B4L, wsrt.BasePS)
		spec.Check = false
		matched := MustRun(spec).Report.ExecTime.Seconds()

		spec.LUTAlpha, spec.LUTBeta = 1.05, 1.05
		static := MustRun(spec).Report.ExecTime.Seconds()

		spec.AdaptiveDVFS = true
		adaptive := MustRun(spec).Report.ExecTime.Seconds()

		if static <= matched*1.02 {
			t.Errorf("%s: mis-calibrated LUT not noticeably slower (%.4g vs %.4g); study is vacuous",
				kernel, static, matched)
			continue
		}
		gap := static - matched
		recovered := (static - adaptive) / gap
		if recovered < 0.25 {
			t.Errorf("%s: adaptive DVFS recovered only %.0f%% of the mis-calibration gap "+
				"(matched %.4g, static %.4g, adaptive %.4g)",
				kernel, 100*recovered, matched, static, adaptive)
		}
	}
}

// TestAdaptiveDVFSHarmlessWhenMatched: with a correctly calibrated LUT the
// tuner must not noticeably hurt.
func TestAdaptiveDVFSHarmlessWhenMatched(t *testing.T) {
	for _, kernel := range []string{"qsort-1", "dict"} {
		spec := DefaultSpec(kernel, Sys4B4L, wsrt.BasePS)
		spec.Check = false
		plain := MustRun(spec).Report.ExecTime.Seconds()
		spec.AdaptiveDVFS = true
		adaptive := MustRun(spec).Report.ExecTime.Seconds()
		if adaptive > plain*1.05 {
			t.Errorf("%s: adaptive DVFS on a matched LUT cost %.1f%%",
				kernel, 100*(adaptive/plain-1))
		}
	}
}

// TestAdaptiveDVFSCorrectness: the tuner must not break results, on the
// paper's 4B4L system or on a 3-class topology (where it tunes one offset
// per class).
func TestAdaptiveDVFSCorrectness(t *testing.T) {
	for _, topo := range [][]CoreClass{nil, {{Count: 1, Speed: 4, Power: 3}, {Count: 2, Speed: 2.5, Power: 1.8}, {Count: 4}}} {
		spec := DefaultSpec("radix-2", Sys4B4L, wsrt.BasePSM)
		spec.Scale = 0.5
		spec.AdaptiveDVFS = true
		spec.Topology = topo
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("topology %q: validation failed under adaptive DVFS: %v", FormatTopology(topo), err)
		}
	}
}

// TestOccupancyVictimReducesBitChatter checks the paper's rationale for
// occupancy-based victim selection (Section III-A): "when combined with
// occupancy-based victim selection as opposed to random victim selection,
// this avoids unnecessary activity bit transitions that could adversely
// impact the customized DVFS controller". We measure failed steal probes —
// the direct driver of hint toggles — under both policies.
func TestOccupancyVictimReducesBitChatter(t *testing.T) {
	var failed [2]int
	var dvfsT [2]int
	for i, pol := range []wsrt.VictimPolicy{wsrt.OccupancyVictim, wsrt.RandomVictim} {
		total := 0
		trans := 0
		for _, kernel := range []string{"qsort-1", "cilksort", "bfs-nd", "hull"} {
			spec := DefaultSpec(kernel, Sys4B4L, wsrt.BasePS)
			spec.Scale = 0.5
			spec.Check = false
			spec.Victim = pol
			rep := MustRun(spec).Report
			total += rep.FailedSteals
			trans += rep.DVFSTransitions
		}
		failed[i] = total
		dvfsT[i] = trans
	}
	if failed[0] >= failed[1] {
		t.Errorf("occupancy victim selection did not reduce failed probes: %d vs random %d",
			failed[0], failed[1])
	}
	t.Logf("failed probes: occupancy=%d random=%d; DVFS transitions: occupancy=%d random=%d",
		failed[0], failed[1], dvfsT[0], dvfsT[1])
}

// TestVictimPolicyCorrectness: results stay valid under random victims.
func TestVictimPolicyCorrectness(t *testing.T) {
	spec := DefaultSpec("cilksort", Sys4B4L, wsrt.BasePSM)
	spec.Scale = 0.5
	spec.Victim = wsrt.RandomVictim
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != nil {
		t.Fatalf("validation failed under random victim selection: %v", res.CheckErr)
	}
}

// TestMemStallExtension: enabling the MPKI-derived stall model slows
// memory-bound kernels much more than compute-bound ones.
func TestMemStallExtension(t *testing.T) {
	slowdown := func(kernel string) float64 {
		spec := DefaultSpec(kernel, Sys4B4L, wsrt.Base)
		spec.Scale = 0.5
		spec.Check = false
		ideal := MustRun(spec).Report.ExecTime.Seconds()
		spec.MemStall = true
		stalled := MustRun(spec).Report.ExecTime.Seconds()
		return stalled / ideal
	}
	bfs := slowdown("bfs-d") // MPKI 14.8
	ks := slowdown("ksack")  // MPKI 0.0
	if bfs < 1.5 {
		t.Errorf("bfs-d memstall slowdown = %.2fx, expected substantial", bfs)
	}
	if ks > 1.01 {
		t.Errorf("ksack memstall slowdown = %.2fx, expected ~1 (MPKI 0)", ks)
	}
}

// TestCacheModelExtension: with the Table I cache-migration model enabled,
// results stay correct, and migration penalties now scale with task
// working sets instead of being constant — mug-heavy kernels with large
// working sets should pay more than under the optimistic constants.
func TestCacheModelExtension(t *testing.T) {
	for _, kernel := range []string{"cilksort", "radix-2", "bfs-d"} {
		spec := DefaultSpec(kernel, Sys4B4L, wsrt.BasePSM)
		spec.Scale = 0.5
		spec.CacheModel = true
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckErr != nil {
			t.Fatalf("%s: validation failed under cache model: %v", kernel, res.CheckErr)
		}
	}
	// Effect check: a kernel with chunky working sets (cilksort merges
	// touch whole subranges) pays measurably different migration costs.
	spec := DefaultSpec("cilksort", Sys4B4L, wsrt.BasePSM)
	spec.Scale = 0.5
	spec.Check = false
	plain := MustRun(spec).Report
	spec.CacheModel = true
	modeled := MustRun(spec).Report
	if plain.ExecTime == modeled.ExecTime {
		t.Error("cache model had zero effect on a steal-heavy kernel")
	}
	ratio := modeled.ExecTime.Seconds() / plain.ExecTime.Seconds()
	if ratio < 0.9 || ratio > 1.5 {
		t.Errorf("cache model changed execution time by %.2fx; expected a moderate effect", ratio)
	}
}

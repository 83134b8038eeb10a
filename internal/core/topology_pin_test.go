package core_test

// The topology-space pin. The default 110-cell matrix fingerprint covers the
// paper's two systems only; this golden hash covers every other way a spec
// can shape the machine: a custom NBig/NLit mix, a 2-entry topology that
// resolves to the kernel's big.LITTLE pair, a 2-class topology that does
// not, 3- and 4-class topologies, elastic parking, the adaptive tuner over a
// mis-calibrated table, and a fail-stop on a 3-class machine. Any change to
// how a core mix is resolved, tabulated or controlled moves the hash.

import (
	"testing"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/fault"
	"aaws/internal/jobs"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// topologyPinFingerprint is the SHA-256 (fabric.Fingerprint) over the
// canonical outcomes of topologyPinSpecs, in order.
const topologyPinFingerprint = "1af06c773e1ba77a1ca4c81d0657a4e9ab9852c567ebdb958654718560b5028d"

// topologyPinSpecs returns the pinned cells: every shape below × cilksort
// and loop-guided × base and base+psm, seed 42, scale 0.25.
func topologyPinSpecs(t *testing.T) []core.Spec {
	t.Helper()
	parse := func(s string) []core.CoreClass {
		topo, err := core.ParseTopology(s)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	shapes := []func(*core.Spec){
		func(s *core.Spec) { s.NBig, s.NLit = 2, 6 },
		func(s *core.Spec) { s.Topology = parse("4,4") },
		func(s *core.Spec) { s.Topology = parse("2x3/2,6") },
		func(s *core.Spec) { s.Topology = parse("1x4/3,2x2.5/1.8,4") },
		func(s *core.Spec) { s.Topology = parse("1x4/3,2x2.5/1.8,4"); s.Elastic = true },
		func(s *core.Spec) { s.Topology = parse("1x4/3,2x2.4/2.2,2x1.6/1.5,3") },
		func(s *core.Spec) { s.AdaptiveDVFS = true; s.LUTAlpha, s.LUTBeta = 1.05, 1.05 },
		func(s *core.Spec) {
			s.Topology = parse("1x4/3,2x2.5/1.8,4")
			s.Faults = &fault.Config{Fails: []fault.CoreFail{{Core: 5, At: 5 * sim.Microsecond}}}
		},
	}
	var specs []core.Spec
	for _, shape := range shapes {
		for _, kernel := range []string{"cilksort", "loop-guided"} {
			for _, v := range []wsrt.Variant{wsrt.Base, wsrt.BasePSM} {
				spec := core.DefaultSpec(kernel, core.Sys4B4L, v)
				spec.Scale = 0.25
				shape(&spec)
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// TestTopologySpacePin recomputes the pinned fingerprint through both the
// per-cell and the batch path.
func TestTopologySpacePin(t *testing.T) {
	specs := topologyPinSpecs(t)
	canonical := func(results []core.Result) [][]byte {
		cells := make([][]byte, len(results))
		for i, res := range results {
			if err := res.Verify(); err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
			hash, err := jobs.SpecHash(specs[i])
			if err != nil {
				t.Fatal(err)
			}
			cells[i], err = jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
			if err != nil {
				t.Fatal(err)
			}
		}
		return cells
	}
	serial := make([]core.Result, len(specs))
	for i, spec := range specs {
		res, err := core.Run(spec)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if spec.Faults != nil && res.Faults.CoreFails != 1 {
			t.Fatalf("cell %d: fail-stop never fired (run ended at %v)", i, res.Report.ExecTime)
		}
		serial[i] = res
	}
	got := fabric.Fingerprint(canonical(serial))
	if got != topologyPinFingerprint {
		t.Errorf("topology-space fingerprint %s != pinned %s", got, topologyPinFingerprint)
	}
	batch, err := core.RunBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if b := fabric.Fingerprint(canonical(batch)); b != got {
		t.Errorf("batch fingerprint %s != per-cell %s", b, got)
	}
}

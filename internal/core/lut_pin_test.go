package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"aaws/internal/kernels"
	"aaws/internal/model"
)

// TestLUTTableBits pins the DVFS table solvers bit for bit: a SHA-256 over
// the float64 bits of every entry (plus SerialV and VRest) of 336 tables,
// every registered kernel (extensions included) × {4B4L, 1B7L} × the three
// LUT modes × {the paper's big.LITTLE pair, the 3-class topology
// 1x4/3,2x2.5/1.8,4}. The digest was taken from solvers that ran every
// bisection its full iteration count and solved the unconstrained optimum
// beside each feasible point; the tables must not move by a bit.
func TestLUTTableBits(t *testing.T) {
	const want = "23d05326eeb9fc4a4b9e0a51588dddd78f53f81a279ffcaac3509e9af14ea772"
	nway, err := ParseTopology("1x4/3,2x2.5/1.8,4")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	tables := 0
	for _, k := range kernels.AllWithExtensions() {
		for _, sys := range []System{Sys4B4L, Sys1B7L} {
			for _, mode := range []model.Mode{model.ModeNominal, model.ModePacing, model.ModePacingSprinting} {
				for _, topo := range [][]CoreClass{nil, nway} {
					tp, err := resolveTopology(Spec{Kernel: k.Name, System: sys, Topology: topo}, k)
					if err != nil {
						t.Fatal(err)
					}
					lut := tp.generateLUT(mode)
					buf = buf[:0]
					for _, e := range lut.Entries {
						for _, v := range e {
							buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
						}
					}
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lut.SerialV))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lut.VRest))
					h.Write(buf)
					tables++
				}
			}
		}
	}
	if tables != 336 {
		t.Fatalf("hashed %d tables, want 336", tables)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("table digest %s, want %s", got, want)
	}
}

package input

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	if ExptSeqFloat(1, 100)[42] != ExptSeqFloat(1, 100)[42] {
		t.Error("ExptSeqFloat not deterministic")
	}
	a := RandLocalGraph(7, 5, 500)
	b := RandLocalGraph(7, 5, 500)
	for v := 0; v < 500; v++ {
		an, bn := a.Neighbors(v), b.Neighbors(v)
		if len(an) != len(bn) {
			t.Fatalf("graph not deterministic at %d", v)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("graph not deterministic at %d", v)
			}
		}
	}
}

// TestGeneratorsByteIdentity pins the graph and word generators bit for
// bit: a SHA-256 over the CSR arrays of RandLocalGraph (degree 5, as the
// graph kernels use it) and the words of TrigramWords, for seeds 0-39 and
// sizes from the degenerate (1, 2, 3) to the large (50000). The digest was
// taken from the per-vertex-slice and per-word-string generators; the bulk
// generators must reproduce it exactly.
func TestGeneratorsByteIdentity(t *testing.T) {
	const want = "60b14f60d45550c570add0f3c43ffa5054c9f47e6937b4602b81e1f15c67267c"
	h := sha256.New()
	var buf []byte
	for seed := uint64(0); seed < 40; seed++ {
		for _, n := range []int{1, 2, 3, 17, 1000, 50000} {
			g := RandLocalGraph(seed, 5, n)
			buf = buf[:0]
			for _, o := range g.Offsets {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
			}
			for _, e := range g.Edges {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
			}
			for _, w := range TrigramWords(seed, n) {
				buf = append(append(buf, w...), 0)
			}
			h.Write(buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("generator digest %s, want %s", got, want)
	}
}

// TestTrigramStringByteIdentity pins the suffix-array input bit for bit: a
// SHA-256 over TrigramString for seeds 0-39 and the sizes of
// TestGeneratorsByteIdentity. The digest was taken from the generator that
// looked each successor list up in a map.
func TestTrigramStringByteIdentity(t *testing.T) {
	const want = "709547821fa616a21875805b65ef696f832e8427d3bf6d2f5462de37fa245238"
	h := sha256.New()
	for seed := uint64(0); seed < 40; seed++ {
		for _, n := range []int{1, 2, 3, 17, 1000, 50000} {
			h.Write(TrigramString(seed, n))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("TrigramString digest %s, want %s", got, want)
	}
}

func TestExptSeqSkew(t *testing.T) {
	xs := ExptSeqFloat(3, 20000)
	// Exponential: mean ~ n, median ~ n*ln2; strong right skew.
	var sum float64
	for _, x := range xs {
		if x < 0 {
			t.Fatal("negative sample")
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	below := 0
	for _, x := range xs {
		if x < mean {
			below++
		}
	}
	if frac := float64(below) / float64(len(xs)); frac < 0.58 || frac > 0.68 {
		t.Errorf("%.2f of samples below mean, want ~0.63 for exponential", frac)
	}
}

func TestTrigramWordsHaveDuplicates(t *testing.T) {
	words := TrigramWords(5, 20000)
	set := map[string]bool{}
	for _, w := range words {
		if len(w) < 3 || len(w) > 10 {
			t.Fatalf("word length %d out of range: %q", len(w), w)
		}
		set[w] = true
	}
	if len(set) == len(words) {
		t.Error("no duplicate words; rdups/dict need duplication")
	}
	if len(set) < 100 {
		t.Errorf("only %d distinct words; too degenerate", len(set))
	}
}

func TestGraphStructure(t *testing.T) {
	const n, d = 2000, 5
	g := RandLocalGraph(11, d, n)
	if g.N != n {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 2*n*d {
		t.Errorf("edges = %d, want %d (symmetric)", g.NumEdges(), 2*n*d)
	}
	// Symmetry: u in adj(v) iff v in adj(u) with equal multiplicity.
	count := map[[2]int32]int{}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) == v {
				t.Fatalf("self loop at %d", v)
			}
			count[[2]int32{int32(v), u}]++
		}
	}
	for k, c := range count {
		if count[[2]int32{k[1], k[0]}] != c {
			t.Fatalf("asymmetric edge %v", k)
		}
	}
}

func TestEdgesValid(t *testing.T) {
	f := func(seed uint64) bool {
		edges := RandLocalEdges(seed, 3, 200)
		for _, e := range edges {
			if e.U < 0 || e.U >= 200 || e.V < 0 || e.V >= 200 || e.U == e.V {
				return false
			}
		}
		return len(edges) == 600
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKuzminConcentration(t *testing.T) {
	pts := Kuzmin2D(9, 20000)
	inner := 0
	for _, p := range pts {
		if math.Hypot(p.X, p.Y) < 1 {
			inner++
		}
	}
	// Kuzmin disk: M(<r) = 1 - 1/sqrt(1+r^2); M(<1) ~ 0.29.
	frac := float64(inner) / float64(len(pts))
	if frac < 0.24 || frac > 0.35 {
		t.Errorf("%.2f of Kuzmin points within r=1, want ~0.29", frac)
	}
}

func TestCubePointsInRange(t *testing.T) {
	for _, p := range Cube2D(2, 1000) {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			t.Fatalf("point out of unit square: %+v", p)
		}
	}
	for _, p := range Cube3D(2, 1000) {
		if p.Z < 0 || p.Z >= 1 {
			t.Fatalf("point out of unit cube: %+v", p)
		}
	}
}

func TestOptionsSane(t *testing.T) {
	calls := 0
	for _, o := range Options(4, 1000) {
		if o.Spot <= 0 || o.Strike <= 0 || o.Vol <= 0 || o.Time <= 0 {
			t.Fatalf("degenerate option: %+v", o)
		}
		if o.Call {
			calls++
		}
	}
	if calls < 300 || calls > 700 {
		t.Errorf("call/put mix skewed: %d calls", calls)
	}
}

func TestTrigramStringAlpha(t *testing.T) {
	s := TrigramString(8, 5000)
	for i, c := range s {
		if c < 'a' || c > 'z' {
			t.Fatalf("non-letter byte %q at %d", c, i)
		}
	}
}

package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"distinct/internal/reldb"
)

// TestNormalizeRejectsNonFinite: one +Inf weight used to turn every
// normalised weight into NaN, which zeroes every similarity and splits
// each name into singletons with no error. Non-finite input is now an
// error.
func TestNormalizeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		w := []float64{0.2, bad, 0.5}
		if out, err := normalize(w); err == nil {
			t.Errorf("normalize(%v) = %v, want an error", w, out)
		}
	}
}

// TestNormalizeHugeWeights: weights near the float64 maximum used to
// overflow the sum to +Inf and normalise to all zeros. They must
// normalise like any other equal weights.
func TestNormalizeHugeWeights(t *testing.T) {
	w := []float64{1e308, 1e308, 1e308, 0, -1e308}
	out, err := normalize(w)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, v := range out[:3] {
		if v != out[0] || v <= 0 {
			t.Fatalf("weight %d = %v, want equal positive weights: %v", i, v, out)
		}
		sum += v
	}
	if out[3] != 0 || out[4] != 0 || math.Abs(sum-1) > 1e-15 {
		t.Fatalf("normalize(%v) = %v, want three thirds and zeros", w, out)
	}
}

// TestNormalizeMatchesPlainDivision pins that the overflow-safe sum
// changes no bit where the plain one did not overflow: learned weights,
// and hence every golden output, are unchanged.
func TestNormalizeMatchesPlainDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		w := make([]float64, 1+rng.Intn(50))
		for i := range w {
			w[i] = (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(40)-20))
		}
		out, err := normalize(w)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range w {
			if v > 0 {
				sum += v
			}
		}
		for i, v := range w {
			want := 0.0
			if v > 0 {
				want = v / sum
			}
			if sum == 0 {
				want = 1 / float64(len(w))
			}
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d weight %d: %v, plain division %v", trial, i, out[i], want)
			}
		}
	}
}

// TestSetWeightsDegenerate drives both failures through the engine: a
// non-finite weight is refused and leaves the weights in place, and
// weights at 1e308 cluster every name exactly as uniform weights do.
func TestSetWeightsDegenerate(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	n := len(e.Paths())
	var uniform [][][]reldb.TupleID
	for _, name := range w.AmbiguousNames() {
		groups, err := e.DisambiguateNameCtx(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		uniform = append(uniform, groups)
	}
	rw, ww := e.Weights()
	huge := make([]float64, n)
	for p := range huge {
		huge[p] = 1e308
	}
	inf := append([]float64(nil), huge...)
	inf[n/2] = math.Inf(1)
	if err := e.SetWeights(inf, huge); err == nil {
		t.Fatal("SetWeights accepted a +Inf resemblance weight")
	}
	if err := e.SetWeights(huge, inf); err == nil {
		t.Fatal("SetWeights accepted a +Inf walk weight")
	}
	if gr, gw := e.Weights(); !reflect.DeepEqual(gr, rw) || !reflect.DeepEqual(gw, ww) {
		t.Fatal("a refused SetWeights changed the engine's weights")
	}
	if err := e.SetWeights(huge, huge); err != nil {
		t.Fatal(err)
	}
	for i, name := range w.AmbiguousNames() {
		groups, err := e.DisambiguateNameCtx(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(groups, uniform[i]) {
			t.Fatalf("%s under weights of 1e308: %v, uniform weights %v", name, groups, uniform[i])
		}
	}
}

package main

import (
	"math"
	"testing"
)

func TestQuantileCarriesSampleCount(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q, want float64
	}{{0, 1}, {0.5, 500.5}, {0.99, 990.01}, {1, 1000}} {
		got := quantile(xs, c.q)
		if math.Abs(got.Value-c.want) > 1e-9 || got.N != 1000 {
			t.Errorf("quantile(%v) = %+v, want %v over 1000", c.q, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("empty quantile = %+v", got)
	}
	if got := quantile([]float64{3}, 0.99); got.Value != 3 || got.N != 1 {
		t.Errorf("single-sample quantile = %+v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {1663, 0.99, true}} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v", c.n, c.q, got)
		}
	}
}

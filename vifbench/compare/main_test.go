package main

import "testing"

// TestQuartilesMatchPython checks quartiles against values
// statistics.quantiles(data, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2, 4, 8}, [3]float64{2, 4, 8}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9}
	faster := []float64{8, 8.1, 8.2, 8.3, 8.4, 8.5, 8.6, 8.7, 8.8, 8.9}
	slower := []float64{13, 13.1, 13.2, 13.3, 13.4, 13.5, 13.6, 13.7, 13.8, 13.9}
	qa := quartiles(a)
	if v := verdict(a, faster, qa, quartiles(faster), 10, 10, false, 0.1); v != "gain" {
		t.Errorf("lower-is-better, all pairs won: %q, want gain", v)
	}
	if v := verdict(a, slower, qa, quartiles(slower), 0, 10, false, 0.1); v == "same" || v == "gain" {
		t.Errorf("lower-is-better, 27%% slower: %q, want worse", v)
	}
	if v := verdict(a, a, qa, qa, 0, 10, true, 0.1); v != "same" {
		t.Errorf("identical sides: %q, want same", v)
	}
}

package main

import "testing"

func BenchmarkRefSlice(b *testing.B) {
	s := &refSeries{}
	for range b.N {
		s.slice()
	}
}

// A run whose reference slices took twice the reference host's CPU
// time scales its host times by one half.
func TestRefScale(t *testing.T) {
	s := &refSeries{cpu: []float64{100, 2 * refNominalMS, 10}}
	if got := s.scale(); got != 0.5 {
		t.Errorf("scale = %v, want 0.5", got)
	}
	if got := (*refSeries)(nil).scale(); got != 1 {
		t.Errorf("nil series: scale = %v, want 1", got)
	}
}

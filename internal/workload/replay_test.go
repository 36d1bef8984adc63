package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/sweep"
)

// TestReplayTimeScaleCompressesSubmissions: -replay-timescale F divides
// submission times, job order and sizes untouched; 0 means no
// compression and negative factors are rejected.
func TestReplayTimeScaleCompressesSubmissions(t *testing.T) {
	jobs, err := ReadTraceFile(sampleTracePath)
	if err != nil {
		t.Fatal(err)
	}
	build := func(ts float64) *ReplayBackend {
		b, err := NewReplayBackend(ReplayConfig{Jobs: jobs, TimeScale: ts})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := build(0).Specs(0)
	fast := build(4).Specs(0)
	if len(plain) != len(fast) || len(plain) == 0 {
		t.Fatalf("spec counts differ: %d vs %d", len(plain), len(fast))
	}
	for i := range plain {
		want := time.Duration(float64(plain[i].SubmitAt) / 4)
		if fast[i].SubmitAt != want {
			t.Fatalf("job %d submit %v at timescale 4, want %v (plain %v)",
				i, fast[i].SubmitAt, want, plain[i].SubmitAt)
		}
		if fast[i].InputBytes != plain[i].InputBytes || fast[i].Conf.Name != plain[i].Conf.Name {
			t.Fatalf("job %d: timescale changed more than submission time", i)
		}
	}
	if _, err := NewReplayBackend(ReplayConfig{Jobs: jobs, TimeScale: -1}); err == nil {
		t.Fatal("negative timescale accepted")
	}
}

// TestReplayTimeScaleDeterministic: a compressed replay is still
// byte-identical across parallelism levels — the knob must not leak
// execution order into results.
func TestReplayTimeScaleDeterministic(t *testing.T) {
	jobs, err := ReadTraceFile(sampleTracePath)
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallel int) string {
		b, err := NewReplayBackend(ReplayConfig{Jobs: jobs, Shards: 2, TimeScale: 6, Scheduler: "hfsp"})
		if err != nil {
			t.Fatal(err)
		}
		col, err := sweep.RunBackend(b, sweep.Options{Parallel: parallel, Seed: 3}, sweep.RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := col.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	one := render(1)
	if one != render(4) {
		t.Fatal("timescaled replay differs across parallelism")
	}
	if len(one) == 0 {
		t.Fatal("empty replay output")
	}
}

// TestReplayFingerprintCoversContent: the backend content fingerprint
// must change when the trace or the replay configuration changes, so
// distributed workers with a different trace copy are rejected at join.
func TestReplayFingerprintCoversContent(t *testing.T) {
	jobs, err := ReadTraceFile(sampleTracePath)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(cfg ReplayConfig) string {
		cfg.Jobs = append([]TraceJob(nil), cfg.Jobs...)
		b, err := NewReplayBackend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b.Fingerprint()
	}
	base := fp(ReplayConfig{Jobs: jobs})
	if base != fp(ReplayConfig{Jobs: jobs}) {
		t.Fatal("identical configs fingerprint differently")
	}
	mutated := append([]TraceJob(nil), jobs...)
	mutated[0].InputBytes++
	for name, other := range map[string]string{
		"trace bytes": fp(ReplayConfig{Jobs: mutated}),
		"timescale":   fp(ReplayConfig{Jobs: jobs, TimeScale: 2}),
		"scheduler":   fp(ReplayConfig{Jobs: jobs, Scheduler: "hfsp"}),
		"shards":      fp(ReplayConfig{Jobs: jobs, Shards: 2}),
	} {
		if other == base {
			t.Fatalf("fingerprint ignores %s", name)
		}
	}
}

// TestReplayWindowByteIdentical: the streaming input window is pure
// execution strategy — any window (including a degenerate 1-job one)
// must replay a synthesized trace byte-identically to the unbounded
// materialize-everything install, and must not enter the fingerprint
// (coordinator and workers may disagree on it freely).
func TestReplayWindowByteIdentical(t *testing.T) {
	jobs, err := SynthesizeTrace(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	render := func(window int) string {
		b, err := NewReplayBackend(ReplayConfig{
			Jobs:      append([]TraceJob(nil), jobs...),
			Shards:    2,
			TimeScale: 8,
			Scheduler: "fair",
			Window:    window,
		})
		if err != nil {
			t.Fatal(err)
		}
		col, err := sweep.RunBackend(b, sweep.Options{Parallel: 2, Seed: 5}, sweep.RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := col.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	unbounded := render(0)
	if len(unbounded) == 0 {
		t.Fatal("empty replay output")
	}
	for _, w := range []int{1, 7, 64} {
		if render(w) != unbounded {
			t.Fatalf("window %d diverges from the unbounded install", w)
		}
	}
	fp := func(window int) string {
		b, err := NewReplayBackend(ReplayConfig{Jobs: append([]TraceJob(nil), jobs...), Window: window})
		if err != nil {
			t.Fatal(err)
		}
		return b.Fingerprint()
	}
	if fp(0) != fp(16) {
		t.Fatal("window leaked into the fingerprint")
	}
	if _, err := NewReplayBackend(ReplayConfig{Jobs: jobs, Window: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestSynthesizeTraceShape: the synthesized SWIM trace is deterministic
// in (n, seed), sorted by submission time with consistent inter-arrival
// gaps, and carries unique IDs — everything the replay backend and the
// distributed fingerprint check rely on.
func TestSynthesizeTraceShape(t *testing.T) {
	a, err := SynthesizeTrace(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeTrace(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 300 {
		t.Fatalf("got %d jobs, want 300", len(a))
	}
	seen := make(map[string]bool)
	var prev time.Duration
	for i, j := range a {
		if j != b[i] {
			t.Fatalf("job %d differs between identical calls", i)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate job id %q", j.ID)
		}
		seen[j.ID] = true
		if j.SubmitAt < prev {
			t.Fatalf("job %d submits at %v before predecessor %v", i, j.SubmitAt, prev)
		}
		if j.SubmitAt-prev != j.Interarrival {
			t.Fatalf("job %d interarrival %v, want %v", i, j.Interarrival, j.SubmitAt-prev)
		}
		if j.InputBytes <= 0 {
			t.Fatalf("job %d has input %d", i, j.InputBytes)
		}
		prev = j.SubmitAt
	}
	other, err := SynthesizeTrace(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if other[0] == a[0] && other[1] == a[1] {
		t.Fatal("seed does not vary the trace")
	}
}

// TestReplayNonConvergenceExplainsLoad: a shard that misses its
// deadline reports how far it got and how loaded the cluster was, so an
// overloaded cell can be told from a stuck one.
func TestReplayNonConvergenceExplainsLoad(t *testing.T) {
	jobs, err := ReadTraceFile(sampleTracePath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReplayBackend(ReplayConfig{Jobs: jobs, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sweep.RunBackend(b, sweep.Options{Parallel: 1, Seed: 1}, sweep.RepAxis)
	if err == nil {
		t.Fatal("replay converged within a one-minute deadline")
	}
	for _, want := range []string{"did not converge within 1m0s", "at virtual time ",
		"jobs submitted", "completed (the last at", "live", "pending tasks", "of 4 slots busy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testGrid(reps int) Grid {
	return NewGrid(
		Strings("prim", "wait", "kill", "susp"),
		Floats("r", 10, 50, 90),
		Reps(reps),
	).Pair("prim")
}

// synthCell is a deterministic stand-in for a simulation: it derives
// its measurements purely from the cell seed and coordinates.
func synthCell(pt Point, rec *Recorder) error {
	rng := pt.RNG()
	base := pt.Float("r") + 100*float64(len(pt.Label("prim")))
	// Recorded out of name order on purpose: summaries and encoders must
	// not depend on it.
	rec.Observe("sojourn_s", base+rng.Float64())
	rec.Observe("makespan_s", 2*base+rng.Float64())
	return nil
}

// encodeAll renders a collapsed result in every format.
func encodeAll(t *testing.T, c *Collapsed) string {
	t.Helper()
	var out bytes.Buffer
	for _, format := range []string{"csv", "json", "table"} {
		if err := c.Write(&out, format); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

func TestGridEnumeration(t *testing.T) {
	g := testGrid(2)
	if g.Size() != 3*3*2 {
		t.Fatalf("size = %d, want 18", g.Size())
	}
	points, err := g.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 18 {
		t.Fatalf("points = %d, want 18", len(points))
	}
	// Row-major: last axis (rep) varies fastest, first axis slowest.
	if got := points[0].Key(); got != "prim=wait r=10 rep=0" {
		t.Fatalf("first key = %q", got)
	}
	if got := points[1].Key(); got != "prim=wait r=10 rep=1" {
		t.Fatalf("second key = %q", got)
	}
	if got := points[17].Key(); got != "prim=susp r=90 rep=1" {
		t.Fatalf("last key = %q", got)
	}
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
	}
}

func TestGridValidation(t *testing.T) {
	cases := []Grid{
		{},
		NewGrid(Axis{Name: "empty"}),
		NewGrid(Strings("a", "x"), Strings("a", "y")),
		NewGrid(Strings("a", "x", "x")),
		NewGrid(Strings("a", "x")).Pair("nope"),
	}
	for i, g := range cases {
		if _, err := g.Points(1); err == nil {
			t.Fatalf("case %d: invalid grid accepted", i)
		}
	}
}

func TestSeedPairing(t *testing.T) {
	points, err := testGrid(2).Points(1)
	if err != nil {
		t.Fatal(err)
	}
	bySuffix := make(map[string][]uint64)
	for _, p := range points {
		bySuffix[p.KeyWithout("prim")] = append(bySuffix[p.KeyWithout("prim")], p.Seed)
	}
	// All primitives at the same (r, rep) share a seed.
	for key, seeds := range bySuffix {
		for _, s := range seeds {
			if s != seeds[0] {
				t.Fatalf("paired cell %q has diverging seeds %v", key, seeds)
			}
		}
	}
	// Different (r, rep) cells get different seeds.
	seen := make(map[uint64]string)
	for key, seeds := range bySuffix {
		if prev, dup := seen[seeds[0]]; dup {
			t.Fatalf("cells %q and %q share seed %d", prev, key, seeds[0])
		}
		seen[seeds[0]] = key
	}
}

func TestSeedsIgnoreAxisOrderOfOtherCells(t *testing.T) {
	// A cell's seed depends only on its own coordinates and the base
	// seed — growing the grid must not reshuffle existing cells' seeds.
	small, err := NewGrid(Strings("p", "a"), Floats("r", 1, 2)).Points(9)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewGrid(Strings("p", "a", "b"), Floats("r", 1, 2, 3)).Points(9)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string]uint64)
	for _, p := range big {
		seeds[p.Key()] = p.Seed
	}
	for _, p := range small {
		if seeds[p.Key()] != p.Seed {
			t.Fatalf("cell %q changed seed when the grid grew", p.Key())
		}
	}
}

// TestDeterministicAcrossParallelism is the harness's core guarantee:
// the same grid and seed produce identical aggregates and identical
// encoded output at any worker pool size.
func TestDeterministicAcrossParallelism(t *testing.T) {
	outputs := make(map[int]string)
	for _, parallel := range []int{1, 4, 16} {
		col, err := RunCollapsed(testGrid(3), synthCell, Options{Parallel: parallel, Seed: 7}, RepAxis)
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
		outputs[parallel] = out.String()
	}
	if outputs[1] != outputs[4] || outputs[1] != outputs[16] {
		t.Fatal("output differs across parallelism levels")
	}
}

func TestWorkerPoolBounds(t *testing.T) {
	const parallel = 3
	var active, peak, total int64
	var mu sync.Mutex
	cell := func(pt Point, rec *Recorder) error {
		n := atomic.AddInt64(&active, 1)
		defer atomic.AddInt64(&active, -1)
		atomic.AddInt64(&total, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return nil
	}
	if _, err := RunCollapsed(testGrid(2), cell, Options{Parallel: parallel, Seed: 1}, RepAxis); err != nil {
		t.Fatal(err)
	}
	if total != 18 {
		t.Fatalf("ran %d cells, want 18", total)
	}
	if peak > parallel {
		t.Fatalf("observed %d concurrent cells, pool bound is %d", peak, parallel)
	}
	if peak < 2 {
		t.Fatalf("observed %d concurrent cells, expected the pool to actually run in parallel", peak)
	}
}

// TestRunErrorNamesFirstFailingCell: within a shard slice, the error
// names the first failing cell the shard owns, in grid order.
func TestRunErrorNamesFirstFailingCell(t *testing.T) {
	cell := func(pt Point, rec *Recorder) error {
		if pt.Label("prim") == "kill" {
			return fmt.Errorf("boom at r=%v", pt.Float("r"))
		}
		return nil
	}
	opts := Options{Parallel: 4, Seed: 1, Shard: Shard{Index: 0, Count: 2}}
	_, err := RunCollapsed(testGrid(1), cell, opts, RepAxis)
	if err == nil {
		t.Fatal("expected error")
	}
	// The kill cells are grid indices 3, 4 and 5; shard 0/2 owns the
	// even indices, so its first failing cell is kill/r=50/rep=0.
	if !strings.Contains(err.Error(), `cell "prim=kill r=50 rep=0"`) {
		t.Fatalf("error %q does not name the shard's first failing cell", err)
	}
}

// TestCollapseAggregates collapses a leading axis rather than the
// repetition axis: each group gathers one cell per variant.
func TestCollapseAggregates(t *testing.T) {
	g := NewGrid(Strings("variant", "a", "b"), Reps(4))
	cell := func(pt Point, rec *Recorder) error {
		// variant a reports its rep index, variant b twice that.
		v := float64(pt.Int(RepAxis))
		if pt.Label("variant") == "b" {
			v *= 2
		}
		rec.Observe("x", v)
		return nil
	}
	col, err := RunCollapsed(g, cell, Options{Parallel: 2, Seed: 1}, "variant")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(col.Groups))
	}
	for rep, grp := range col.Groups {
		if want := fmt.Sprintf("rep=%d", rep); grp.Key != want {
			t.Fatalf("group %d key = %q, want %q", rep, grp.Key, want)
		}
		if grp.Count != 2 {
			t.Fatalf("group %d count = %d, want 2", rep, grp.Count)
		}
		got := grp.Metrics["x"]
		if r := float64(rep); got.Mean != 1.5*r || got.Min != r || got.Max != 2*r {
			t.Fatalf("group %d summary = %+v", rep, got)
		}
		if !reflect.DeepEqual(grp.Labels, map[string]string{RepAxis: fmt.Sprint(rep)}) {
			t.Fatalf("group %d labels = %v", rep, grp.Labels)
		}
	}
}

func TestCollapseNothingYieldsOneGroupPerCell(t *testing.T) {
	g := testGrid(1)
	col, err := RunCollapsed(g, synthCell, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != g.Size() {
		t.Fatalf("groups = %d, want %d", len(col.Groups), g.Size())
	}
	for i, grp := range col.Groups {
		if grp.Count != 1 {
			t.Fatalf("group %d folded %d cells, want 1", i, grp.Count)
		}
	}
}

func TestWriteCSVShape(t *testing.T) {
	col, err := RunCollapsed(testGrid(2), synthCell, Options{Seed: 1}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "prim,r,metric,count,mean,std,min,p50,p95,max" {
		t.Fatalf("header = %q", lines[0])
	}
	// 9 groups x 2 metrics + header.
	if len(lines) != 1+9*2 {
		t.Fatalf("rows = %d, want 19", len(lines))
	}
	if !strings.HasPrefix(lines[1], "wait,10,makespan_s,2,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestWriteJSONIncludesOutcomeLabels(t *testing.T) {
	g := NewGrid(Strings("policy", "small", "large"))
	cell := func(pt Point, rec *Recorder) error {
		rec.Observe("x", 1)
		rec.Label("victim", "victim-of-"+pt.Label("policy"))
		return nil
	}
	col, err := RunCollapsed(g, cell, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"victim": "victim-of-small"`, `"policy": "large"`, `"seed": 1`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWriteTableAligned(t *testing.T) {
	col, err := RunCollapsed(testGrid(1), synthCell, Options{Seed: 1}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+9 {
		t.Fatalf("rows = %d, want 10", len(lines))
	}
	if !strings.Contains(lines[0], "prim") || !strings.Contains(lines[0], "sojourn_s") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestPointAccessors(t *testing.T) {
	points, err := NewGrid(Strings("s", "x"), Floats("f", 2.5), Ints("i", 7)).Points(1)
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.Value("s").(string) != "x" || p.Label("s") != "x" {
		t.Fatal("string axis accessor broken")
	}
	if p.Float("f") != 2.5 || p.Label("f") != "2.5" {
		t.Fatal("float axis accessor broken")
	}
	if p.Int("i") != 7 || p.Float("i") != 7 {
		t.Fatal("int axis accessor broken")
	}
	for _, fn := range []func(){
		func() { p.Value("nope") },
		func() { p.Int("f") },
		func() { p.Float("s") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

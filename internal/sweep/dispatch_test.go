package sweep

import (
	"strings"
	"testing"

	"hadooppreempt/internal/sim"
)

// TestRunCellsRecoversPanic: a panicking cell function becomes that
// cell's structured error — named by its coordinates, carrying the
// panic value — instead of killing the process. Backends run arbitrary
// engine code (and injected chaos), so a worker must survive any cell.
func TestRunCellsRecoversPanic(t *testing.T) {
	g := NewGrid(Strings("a", "x", "y"), Reps(3))
	run := func(pt Point, rec *Recorder) error {
		if pt.Index == 2 {
			panic("synthetic cell panic")
		}
		rec.Observe("m0", float64(pt.Index))
		return nil
	}
	_, err := RunCells(g, run, 1, 4, nil)
	if err == nil {
		t.Fatal("panicking cell did not surface an error")
	}
	for _, frag := range []string{`sweep: cell "`, "panic: synthetic cell panic"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q missing %q", err, frag)
		}
	}
	// The panic error carries a stack trace for diagnosis.
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("error %q missing the stack trace", err)
	}
}

// TestDispatchersMatchRunCollapsed checks, over random grids, that the
// in-process dispatcher used directly — whole grid and each shard —
// produces output byte-identical to the Options-driven entry point it
// backs.
func TestDispatchersMatchRunCollapsed(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		g := randomGrid(rng)
		collapse := randomCollapse(rng, g)
		seed := rng.Uint64()
		want, err := RunCollapsed(g, propertyCell, Options{Parallel: 3, Seed: seed}, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := PoolDispatcher{Parallel: 3}.Dispatch(g, propertyCell, seed, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		if encodeAll(t, pool) != encodeAll(t, want) {
			t.Fatalf("trial %d: PoolDispatcher output differs from RunCollapsed", trial)
		}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			sh := Shard{Index: i, Count: n}
			viaOpts, err := RunCollapsed(g, propertyCell, Options{Parallel: 2, Seed: seed, Shard: sh}, collapse...)
			if err != nil {
				t.Fatal(err)
			}
			viaDispatch, err := PoolDispatcher{Shard: sh, Parallel: 2}.Dispatch(g, propertyCell, seed, collapse...)
			if err != nil {
				t.Fatal(err)
			}
			if encodeAll(t, viaDispatch) != encodeAll(t, viaOpts) {
				t.Fatalf("trial %d shard %s: PoolDispatcher output differs from Options.Shard", trial, sh)
			}
			if viaDispatch.Shard != sh {
				t.Fatalf("trial %d: PoolDispatcher result carries shard %s, want %s", trial, viaDispatch.Shard, sh)
			}
		}
	}
}

// TestRunCellsSubsetsMerge is the distributed-execution contract with
// the network removed: any partition of the grid's cells into RunCells
// batches absorbs (via Accumulator, in any batch order) into output
// byte-identical to a single-process sweep.
func TestRunCellsSubsetsMerge(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 20; trial++ {
		g := randomGrid(rng)
		collapse := randomCollapse(rng, g)
		seed := rng.Uint64()
		full, err := RunCollapsed(g, propertyCell, Options{Parallel: 4, Seed: seed}, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeAll(t, full)
		cells := rng.Perm(g.Size())
		var parts []*Collapsed
		for len(cells) > 0 {
			n := 1 + rng.Intn(len(cells))
			batch, rest := cells[:n], cells[n:]
			part, err := RunCells(g, propertyCell, seed, 2, batch, collapse...)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
			cells = rest
		}
		acc, err := NewAccumulator(g, seed, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(len(parts)) {
			if err := acc.Absorb(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := acc.Merged()
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeAll(t, merged); got != want {
			t.Fatalf("trial %d (%d parts): merged subset output differs\nwant:\n%s\ngot:\n%s",
				trial, len(parts), want, got)
		}
	}
}

// TestRunCellsValidation rejects out-of-range and duplicate cell
// indices instead of silently mis-counting.
func TestRunCellsValidation(t *testing.T) {
	g := testGrid(2)
	if _, err := RunCells(g, synthCell, 1, 1, []int{0, g.Size()}, RepAxis); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if _, err := RunCells(g, synthCell, 1, 1, []int{-1}, RepAxis); err == nil {
		t.Fatal("negative cell accepted")
	}
	if _, err := RunCells(g, synthCell, 1, 1, []int{1, 1}, RepAxis); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	empty, err := RunCells(g, synthCell, 1, 1, []int{}, RepAxis)
	if err != nil {
		t.Fatalf("empty cell list rejected: %v", err)
	}
	for _, grp := range empty.Groups {
		if grp.Count != 0 {
			t.Fatal("empty run folded cells")
		}
	}
}

// TestAccumulatorValidation rejects overlapping, incomplete and
// shard-sliced parts, and accepts every exact cover of the grid.
func TestAccumulatorValidation(t *testing.T) {
	g := testGrid(2)
	part := func(cells ...int) *Collapsed {
		c, err := RunCells(g, synthCell, 1, 1, cells, RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// merge absorbs the parts in order and finalizes, returning the
	// first error.
	merge := func(parts ...*Collapsed) error {
		acc, err := NewAccumulator(g, 1, RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			if err := acc.Absorb(p); err != nil {
				return err
			}
		}
		_, err = acc.Merged()
		return err
	}
	all := make([]int, g.Size())
	for i := range all {
		all[i] = i
	}
	if _, err := Merge(); err == nil {
		t.Fatal("merge of no shards accepted")
	}
	if err := merge(); err == nil {
		t.Fatal("empty accumulation accepted")
	}
	if err := merge(part(all[:2]...)); err == nil {
		t.Fatal("incomplete single part accepted")
	}
	// Cell 1 is in both parts but is no group's first cell, so only the
	// cell-run count catches this overlap.
	if err := merge(part(all[:2]...), part(all[1:]...)); err == nil {
		t.Fatal("overlapping parts accepted")
	}
	if err := merge(part(all[:2]...), part(all[3:]...)); err == nil {
		t.Fatal("gapped parts accepted")
	}
	sharded, err := RunCollapsed(g, synthCell, Options{Seed: 1, Shard: Shard{Index: 0, Count: 2}}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	if err := merge(sharded); err == nil {
		t.Fatal("shard slice accepted by the accumulator")
	}
	if err := merge(part(all[:2]...), part(all[2:]...)); err != nil {
		t.Fatalf("valid subset partition rejected: %v", err)
	}
	if err := merge(part(all...)); err != nil {
		t.Fatalf("full single part rejected: %v", err)
	}
}

// TestGridFingerprint: equal structure hashes equally; any change to
// axis names, labels, order or pairing changes the fingerprint.
func TestGridFingerprint(t *testing.T) {
	base := NewGrid(Strings("a", "x", "y"), Ints("n", 1, 2)).Pair("a")
	if base.Fingerprint() != NewGrid(Strings("a", "x", "y"), Ints("n", 1, 2)).Pair("a").Fingerprint() {
		t.Fatal("identical grids fingerprint differently")
	}
	variants := []Grid{
		NewGrid(Strings("a", "x", "y"), Ints("n", 1, 2)),                // pairing dropped
		NewGrid(Strings("a", "x", "z"), Ints("n", 1, 2)).Pair("a"),      // label changed
		NewGrid(Strings("b", "x", "y"), Ints("n", 1, 2)).Pair("b"),      // axis renamed
		NewGrid(Ints("n", 1, 2), Strings("a", "x", "y")).Pair("a"),      // axis order swapped
		NewGrid(Strings("a", "x", "y"), Ints("n", 1, 2, 3)).Pair("a"),   // value added
		NewGrid(Strings("a", "x", "y", "z"), Ints("n", 1, 2)).Pair("a"), // value added to paired axis
	}
	seen := map[string]bool{base.Fingerprint(): true}
	for i, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Fatalf("variant %d collides with an earlier fingerprint", i)
		}
		seen[fp] = true
	}
	if len(base.Fingerprint()) != 64 || strings.ToLower(base.Fingerprint()) != base.Fingerprint() {
		t.Fatal("fingerprint is not lowercase hex sha256")
	}
}

// TestGroupOfCell checks the cell-to-group arithmetic against the fold
// path: running exactly one cell must increment exactly the group
// GroupOfCell names.
func TestGroupOfCell(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		g := randomGrid(rng)
		collapse := randomCollapse(rng, g)
		skel, err := Skeleton(g, 1, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		for cell := 0; cell < g.Size(); cell++ {
			want, ok := skel.GroupOfCell(cell)
			if !ok {
				t.Fatalf("trial %d: GroupOfCell(%d) unavailable on skeleton", trial, cell)
			}
			one, err := RunCells(g, propertyCell, 1, 1, []int{cell}, collapse...)
			if err != nil {
				t.Fatal(err)
			}
			for gi, grp := range one.Groups {
				if (grp.Count == 1) != (gi == want) {
					t.Fatalf("trial %d cell %d: fold hit group %d, GroupOfCell says %d", trial, cell, gi, want)
				}
			}
		}
		if _, ok := skel.GroupOfCell(-1); ok {
			t.Fatal("negative cell mapped")
		}
		if _, ok := skel.GroupOfCell(g.Size()); ok {
			t.Fatal("out-of-range cell mapped")
		}
	}
}

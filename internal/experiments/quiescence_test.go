package experiments

import (
	"bytes"
	"testing"

	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sweep"
)

// quiescenceCell runs one two-job grid cell with the JobTracker's
// heartbeat fast path switched on or off through the cell's own cluster
// configuration.
func quiescenceCell(disable bool) sweep.CellFunc {
	return func(pt sweep.Point, rec *sweep.Recorder) error {
		cc := mapreduce.DefaultClusterConfig()
		cc.Engine.DisableQuiescentHeartbeats = disable
		p := twoJobParams(pt, 0, 0)
		p.Cluster = &cc
		out, err := RunTwoJob(p)
		if err != nil {
			return err
		}
		recordTwoJob(rec, out)
		return nil
	}
}

// TestQuiescentHeartbeatParity is the heartbeat fast path's proof
// obligation in unit-test form: skipping provably no-op scheduler
// consultations must be invisible in every output byte. The two-job
// grid renders CSV+JSON with the fast path enabled and disabled — at
// -parallel 1, -parallel 8, and through a 3-way shard/merge — and each
// must be identical to the production cell's output.
func TestQuiescentHeartbeatParity(t *testing.T) {
	const seed = 13
	render := func(col *sweep.Collapsed) string {
		var out bytes.Buffer
		if err := col.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	run := func(cell sweep.CellFunc, opts sweep.Options) *sweep.Collapsed {
		opts.Seed = seed
		col, err := sweep.RunCollapsed(TwoJobGrid(1), cell, opts, sweep.RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	direct := func(parallel int) func(sweep.CellFunc) string {
		return func(cell sweep.CellFunc) string {
			return render(run(cell, sweep.Options{Parallel: parallel}))
		}
	}
	sharded := func(cell sweep.CellFunc) string {
		const shards = 3
		parts := make([]*sweep.Collapsed, shards)
		for i := range parts {
			col := run(cell, sweep.Options{Parallel: 4, Shard: sweep.Shard{Index: i, Count: shards}})
			var file bytes.Buffer
			if err := col.WriteShard(&file); err != nil {
				t.Fatal(err)
			}
			var err error
			if parts[i], err = sweep.ReadShard(&file); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := sweep.Merge(parts[2], parts[0], parts[1])
		if err != nil {
			t.Fatal(err)
		}
		return render(merged)
	}
	variants := []struct {
		name string
		run  func(sweep.CellFunc) string
	}{
		{"parallel=1", direct(1)},
		{"parallel=8", direct(8)},
		{"shard/merge", sharded},
	}
	// Every variant, with the fast path on and off, must reproduce the
	// production cell's bytes: sharding and parallelism are invisible,
	// and so is overriding the cluster with its default configuration.
	want := render(run(func(pt sweep.Point, rec *sweep.Recorder) error {
		return TwoJobCellInto(pt, 0, 0, rec)
	}, sweep.Options{Parallel: 8}))
	if len(want) == 0 {
		t.Fatal("empty output")
	}
	for _, v := range variants {
		for _, disable := range []bool{false, true} {
			if got := v.run(quiescenceCell(disable)); got != want {
				t.Fatalf("%s with the quiescent fast path disabled=%v: output differs", v.name, disable)
			}
		}
	}
}

package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Cross-process sharding: cell seeds derive from grid coordinates, so
// slicing a grid across processes is pure partitioning — a shard runs
// its cells with the exact seeds they have in the full sweep, writes
// its partial aggregates (raw sample multisets, so percentiles merge
// exactly) to a shard file, and Merge combines any permutation of the
// shard files into a result byte-identical to a single-process run.

// Shard selects the i-th of n seed-stable slices of a grid. Cells are
// assigned round-robin by grid index, which balances repetitions across
// shards. The zero value selects the whole grid.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// NewShard returns the i-th of n shards, validating the pair.
func NewShard(i, n int) (Shard, error) {
	s := Shard{Index: i, Count: n}
	if err := s.validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// ParseShard parses an "i/n" specification, e.g. "0/3".
func ParseShard(spec string) (Shard, error) {
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard %q: want i/n", spec)
	}
	idx, err1 := strconv.Atoi(i)
	cnt, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("sweep: shard %q: want integer i/n", spec)
	}
	if cnt < 1 {
		return Shard{}, fmt.Errorf("sweep: shard %q: need at least one shard", spec)
	}
	return NewShard(idx, cnt)
}

// String renders the "i/n" form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

func (s Shard) validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("sweep: negative shard %s", s)
	}
	if s.Index >= s.Count && s.Index > 0 {
		return fmt.Errorf("sweep: shard index %d out of range of %d shards", s.Index, s.Count)
	}
	return nil
}

// owns reports whether the shard runs the given grid cell.
func (s Shard) owns(cell int) bool {
	return s.Count <= 1 || cell%s.Count == s.Index
}

// shardFile is the serialized form of a Collapsed result. It carries
// the raw sample multisets rather than summaries: order statistics do
// not merge, sample sets do. Float values round-trip exactly through
// JSON (Go emits the shortest representation that parses back to the
// same float64), so merged output is byte-identical to an unsharded
// run.
type shardFile struct {
	Version   int          `json:"version"`
	Seed      uint64       `json:"seed"`
	Cells     int          `json:"cells"`
	Collapse  []string     `json:"collapse,omitempty"`
	GroupAxes []string     `json:"group_axes"`
	Shard     Shard        `json:"shard"`
	Metrics   []string     `json:"metrics"`
	Groups    []shardGroup `json:"groups"`
}

const shardFileVersion = 1

type shardGroup struct {
	Key      string            `json:"key"`
	Labels   map[string]string `json:"labels"`
	Count    int               `json:"count"`
	First    int               `json:"first"`
	HasFirst bool              `json:"has_first,omitempty"`
	Extra    map[string]string `json:"extra,omitempty"`
	// Samples is indexed like Metrics; groups missing a metric carry
	// null/short rows.
	Samples [][]float64 `json:"samples"`
}

// WriteShard serializes the result — raw samples included — so another
// process can merge it with its sibling shards.
func (c *Collapsed) WriteShard(w io.Writer) error {
	f := shardFile{
		Version:   shardFileVersion,
		Seed:      c.Seed,
		Cells:     c.cells,
		Collapse:  c.CollapsedAxes,
		GroupAxes: c.GroupAxes,
		Shard:     c.Shard,
		Metrics:   c.names,
		Groups:    make([]shardGroup, len(c.Groups)),
	}
	for i, g := range c.Groups {
		f.Groups[i] = shardGroup{
			Key:      g.Key,
			Labels:   g.Labels,
			Count:    g.Count,
			First:    g.firstIndex,
			HasFirst: g.hasFirst,
			Extra:    g.Extra,
			Samples:  g.samples,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// ReadShard deserializes a shard file written by WriteShard. Truncated
// or corrupt input — short streams, trailing garbage, duplicate group
// keys, sample rows without cells, out-of-range first-cell indices —
// fails with an error rather than silently mis-merging downstream.
func ReadShard(r io.Reader) (*Collapsed, error) {
	var f shardFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("sweep: shard file: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep: shard file: trailing data after result (two shards in one file?)")
	}
	if f.Version != shardFileVersion {
		return nil, fmt.Errorf("sweep: shard file version %d, want %d", f.Version, shardFileVersion)
	}
	if f.Cells < 1 {
		return nil, fmt.Errorf("sweep: shard file: grid of %d cells", f.Cells)
	}
	if err := f.Shard.validate(); err != nil {
		return nil, err
	}
	c := &Collapsed{
		Seed:          f.Seed,
		CollapsedAxes: f.Collapse,
		GroupAxes:     f.GroupAxes,
		Shard:         f.Shard,
		cells:         f.Cells,
		names:         f.Metrics,
		ids:           make(map[string]int, len(f.Metrics)),
	}
	for id, n := range f.Metrics {
		if _, ok := c.ids[n]; ok {
			return nil, fmt.Errorf("sweep: shard file: metric %q listed twice", n)
		}
		c.ids[n] = id
	}
	c.Groups = make([]*Group, len(f.Groups))
	keys := make(map[string]bool, len(f.Groups))
	for i, g := range f.Groups {
		if keys[g.Key] {
			return nil, fmt.Errorf("sweep: shard file: duplicate group %q", g.Key)
		}
		keys[g.Key] = true
		if len(g.Samples) > len(f.Metrics) {
			return nil, fmt.Errorf("sweep: shard file: group %d has %d sample rows for %d metrics",
				i, len(g.Samples), len(f.Metrics))
		}
		if g.Count < 0 {
			return nil, fmt.Errorf("sweep: shard file: group %d has negative count", i)
		}
		if g.Count == 0 {
			for _, row := range g.Samples {
				if len(row) > 0 {
					return nil, fmt.Errorf("sweep: shard file: group %d has samples but ran no cells", i)
				}
			}
		}
		if g.First < 0 || g.First >= f.Cells {
			return nil, fmt.Errorf("sweep: shard file: group %d first cell %d outside grid of %d cells",
				i, g.First, f.Cells)
		}
		c.Groups[i] = &Group{
			Key:        g.Key,
			Labels:     g.Labels,
			Count:      g.Count,
			Extra:      g.Extra,
			firstIndex: g.First,
			hasFirst:   g.HasFirst,
			samples:    g.Samples,
		}
	}
	c.finalize()
	return c, nil
}

// Merge combines the shards of one sweep into the full result. It
// accepts the shards in any order and produces — via the shared
// Summarize path, which orders sample multisets before computing — the
// byte-identical output of a single-process run for every encoder. All
// shards of the split must be present exactly once; a single unsharded
// result passes through unchanged.
func Merge(shards ...*Collapsed) (*Collapsed, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sweep: merge of no shards")
	}
	first := shards[0]
	if len(shards) == 1 {
		if first.Shard.Count > 1 {
			return nil, fmt.Errorf("sweep: shard %s merged alone (want all %d shards)",
				first.Shard, first.Shard.Count)
		}
		return first, nil
	}
	seen := make([]bool, len(shards))
	for _, s := range shards {
		if s.Shard.Count != len(shards) {
			return nil, fmt.Errorf("sweep: shard %s in a merge of %d files", s.Shard, len(shards))
		}
		if seen[s.Shard.Index] {
			return nil, fmt.Errorf("sweep: shard %d/%d present twice", s.Shard.Index, s.Shard.Count)
		}
		seen[s.Shard.Index] = true
	}
	out := first.emptyCopy()
	for _, s := range shards {
		if _, err := out.absorb(s); err != nil {
			return nil, err
		}
	}
	out.finalize()
	return out, nil
}

// emptyCopy returns the group skeleton of c — same sweep, same groups,
// nothing folded in.
func (c *Collapsed) emptyCopy() *Collapsed {
	out := &Collapsed{
		Seed:          c.Seed,
		CollapsedAxes: c.CollapsedAxes,
		GroupAxes:     c.GroupAxes,
		Groups:        make([]*Group, len(c.Groups)),
		cells:         c.cells,
		groupStride:   c.groupStride,
		cellStride:    c.cellStride,
		ids:           make(map[string]int),
	}
	for i, g := range c.Groups {
		out.Groups[i] = &Group{Key: g.Key, Labels: g.Labels, firstIndex: g.firstIndex}
	}
	return out
}

// absorb folds a partial result of the same sweep into c: per-group
// counts, raw sample multisets and first-cell extras. It is the one
// merge step behind Merge and Accumulator.Absorb. The whole part is
// validated before anything changes — same seed, grid size, axis sets
// and group identities, and no group whose first cell both c and the
// part ran (a sure sign of overlapping parts) — so a rejected part
// leaves c untouched. It returns the number of cell runs the part
// carried; callers that hand out the cell partition own true
// disjointness, since a Collapsed does not record which cells it ran.
func (c *Collapsed) absorb(part *Collapsed) (int, error) {
	if part.Seed != c.Seed || part.cells != c.cells ||
		!slices.Equal(part.CollapsedAxes, c.CollapsedAxes) ||
		!slices.Equal(part.GroupAxes, c.GroupAxes) ||
		len(part.Groups) != len(c.Groups) {
		return 0, fmt.Errorf("sweep: part is not a slice of the same sweep")
	}
	ran := 0
	for gi, pg := range part.Groups {
		g := c.Groups[gi]
		if pg.Key != g.Key || pg.firstIndex != g.firstIndex {
			return 0, fmt.Errorf("sweep: part group %d is %q, want %q", gi, pg.Key, g.Key)
		}
		if pg.hasFirst && g.hasFirst {
			return 0, fmt.Errorf("sweep: group %d first cell present twice (overlapping parts)", gi)
		}
		ran += pg.Count
	}
	for gi, pg := range part.Groups {
		g := c.Groups[gi]
		g.Count += pg.Count
		for id, samples := range pg.samples {
			if len(samples) == 0 {
				continue
			}
			name := part.names[id]
			oid, ok := c.ids[name]
			if !ok {
				oid = len(c.names)
				c.ids[name] = oid
				c.names = append(c.names, name)
			}
			for oid >= len(g.samples) {
				g.samples = append(g.samples, nil)
			}
			g.samples[oid] = append(g.samples[oid], samples...)
		}
		if pg.hasFirst {
			g.hasFirst = true
			g.Extra = pg.Extra
			g.First = pg.First
		}
	}
	return ran, nil
}

package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// digestsJSON maps "<family>/<seed>/<part>" to the sha256 of that output,
// recorded with -record-digests. Families: grid (paper-grid and
// dist-sweep, which compute the same grids), fifo and hfsp.
//
//go:embed digests.json
var digestsJSON []byte

const digestsFile = "perfbench/digests.json"

// digestSeeds is how many input sets digests.json covers. A run's inputs
// derive from its seed modulo digestSeeds, so every output of every run
// has a stored reference to be checked against.
const digestSeeds = 32

// inputSeed is the seed the run's inputs derive from.
func (b *bench) inputSeed() uint64 { return b.seed % digestSeeds }

func digestFamily(workload string) string {
	switch workload {
	case "replay-fifo":
		return "fifo"
	case "replay-hfsp":
		return "hfsp"
	}
	return "grid"
}

// checker compares every output of a run with what it must be: the
// committed goldens (grid outputs at seed 1), the stored digests, and
// the first output of the same part in the run, so cold, warm and
// traced passes must all agree byte for byte. An output with neither a
// golden nor a stored digest fails the run.
type checker struct {
	golden map[string][]byte
	want   map[string]string
	seen   map[string][]byte
	// source names the references the run's outputs are checked against.
	source string
}

func newChecker(b *bench, workload string) (*checker, error) {
	var all map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	c := &checker{golden: map[string][]byte{}, want: map[string]string{}, seen: map[string][]byte{}}
	family := digestFamily(workload)
	prefix := fmt.Sprintf("%s/%d/", family, b.inputSeed())
	for k, v := range all {
		if name, ok := strings.CutPrefix(k, prefix); ok {
			c.want[name] = v
		}
	}
	if family == "grid" && b.inputSeed() == 1 {
		for _, p := range gridParts {
			path := filepath.Join(b.root, "goldens", fmt.Sprintf("grid_%s_reps20.csv", p))
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			c.golden[p] = data
		}
	}
	var refs []string
	if len(c.golden) > 0 {
		refs = append(refs, "committed goldens")
	}
	if len(c.want) > 0 {
		refs = append(refs, "stored digests")
	}
	c.source = fmt.Sprintf("%s (input seed %d)", strings.Join(append(refs, "the run's first pass"), ", "), b.inputSeed())
	return c, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// mismatchError reports an output that is not what it must be; it fails
// every op of the run.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func mismatch(format string, args ...any) error {
	return &mismatchError{fmt.Sprintf(format, args...)}
}

// part checks one output.
func (c *checker) part(p part) error {
	if g, ok := c.golden[p.name]; ok && !bytes.Equal(g, p.data) {
		return mismatch("output %s differs from goldens/grid_%s_reps20.csv", p.name, p.name)
	}
	w, ok := c.want[p.name]
	if !ok {
		return mismatch("output %s has no stored digest in %s; rerun --record-digests", p.name, digestsFile)
	}
	if digest(p.data) != w {
		return mismatch("output %s hashes to %s, stored digest %s", p.name, digest(p.data), w)
	}
	if first, ok := c.seen[p.name]; ok {
		if !bytes.Equal(first, p.data) {
			return mismatch("output %s differs from the run's first pass", p.name)
		}
	} else {
		c.seen[p.name] = p.data
	}
	return nil
}

// recordDigests computes every family's outputs for seeds [0, digestSeeds) and
// writes the digest table. Run it only after an intended change of the
// simulator's outputs, together with the goldens.
func recordDigests(root, scratch string, nproc int) error {
	all := map[string]string{}
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	for seed := range digestSeeds {
		for _, w := range []string{"paper-grid", "replay-fifo", "replay-hfsp"} {
			wl, _ := findWorkload(w)
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				b := &bench{root: root, seed: uint64(seed), nproc: 1,
					scratch: filepath.Join(scratch, fmt.Sprintf("%s-%d", w, seed))}
				inst, err := wl.setup(b)
				if err == nil {
					var parts []part
					_, parts, err = inst.cold(&meter{}, nil)
					inst.close()
					mu.Lock()
					for _, p := range parts {
						all[fmt.Sprintf("%s/%d/%s", digestFamily(w), seed, p.name)] = digest(p.data)
					}
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s seed %d: %w", w, seed, err)
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, digestsFile), append(data, '\n'), 0o644)
}

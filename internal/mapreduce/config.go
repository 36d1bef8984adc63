package mapreduce

import (
	"fmt"
	"time"
)

// JobConf describes a job at submission time. Rates are expressed as
// throughputs so task durations derive from input sizes, like the paper's
// synthetic mappers that "read and parse the randomly generated input".
type JobConf struct {
	// Name is the display name; the JobID derives from it.
	Name string
	// InputPath is the HDFS file the map tasks read. One map task is
	// created per block.
	InputPath string
	// NumReduces is the reduce task count (0 for map-only jobs, as in the
	// paper's evaluation).
	NumReduces int
	// Priority orders jobs for priority-aware schedulers (higher wins).
	Priority int
	// Pool assigns the job to a fair-scheduler pool ("default" if empty).
	Pool string

	// MapParseRate is the CPU-bound record parsing throughput of the
	// synthetic mapper, bytes/second. The paper's 512 MB tasks run ~80 s,
	// i.e. ~6.7 MB/s.
	MapParseRate float64
	// MapOutputRatio is output bytes per input byte (0 for the paper's
	// synthetic jobs).
	MapOutputRatio float64

	// JVMBaseBytes is the memory footprint of the task execution engine
	// itself (JVM heap, I/O buffers, sort buffers). "Light-weight" tasks
	// allocate only this.
	JVMBaseBytes int64
	// ExtraMemoryBytes is the additional state allocated at task startup
	// and read back at finalization — the worst-case stateful tasks of
	// §IV-C write random values to this much memory at startup and read
	// them back when finalizing.
	ExtraMemoryBytes int64
	// StatefulMapper makes the task continuously update its extra state
	// while processing (in-mapper aggregation over in-heap structures,
	// the pattern of Lin & Dyer the paper cites). Such tasks re-dirty
	// their pages between suspensions, so every suspend/resume cycle
	// pays the paging cost again (§III-A's thrashing discussion).
	StatefulMapper bool
	// ExternalConnections is the number of connections to external
	// systems the task holds (§V-B: network connections, Hadoop
	// Streaming pipes). SIGTSTP is used instead of SIGSTOP precisely so
	// a handler can close them before stopping and reopen them on
	// SIGCONT; both directions cost latency per connection.
	ExternalConnections int

	// ReduceRate is the reduce-phase throughput in bytes/second.
	ReduceRate float64
	// ShuffleSortRate is the shuffle+sort throughput in bytes/second.
	ShuffleSortRate float64
}

// Validate checks the configuration, applying defaults where documented.
func (c *JobConf) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("mapreduce: job needs a name")
	}
	if c.InputPath == "" {
		return fmt.Errorf("mapreduce: job %s needs an input path", c.Name)
	}
	if c.MapParseRate <= 0 {
		return fmt.Errorf("mapreduce: job %s needs a positive map parse rate", c.Name)
	}
	if c.NumReduces < 0 {
		return fmt.Errorf("mapreduce: job %s has negative reduce count", c.Name)
	}
	if c.NumReduces > 0 && (c.ReduceRate <= 0 || c.ShuffleSortRate <= 0) {
		return fmt.Errorf("mapreduce: job %s with reduces needs reduce and shuffle rates", c.Name)
	}
	if c.MapOutputRatio < 0 {
		return fmt.Errorf("mapreduce: job %s has negative output ratio", c.Name)
	}
	if c.JVMBaseBytes < 0 || c.ExtraMemoryBytes < 0 {
		return fmt.Errorf("mapreduce: job %s has negative memory size", c.Name)
	}
	if c.JVMBaseBytes == 0 {
		c.JVMBaseBytes = 200 << 20
	}
	return nil
}

// EngineConfig holds cluster-wide engine parameters.
type EngineConfig struct {
	// HeartbeatInterval is the regular TaskTracker heartbeat period
	// (Hadoop 1 floor: 3 s).
	HeartbeatInterval time.Duration
	// OutOfBandHeartbeats enables an immediate heartbeat when a slot
	// frees up (mapreduce.tasktracker.outofband.heartbeat).
	OutOfBandHeartbeats bool
	// JVMStartup is the cost of spawning a task JVM.
	JVMStartup time.Duration
	// CommitCost is the latency of committing task output.
	CommitCost time.Duration
	// CleanupCost is the duration the cleanup attempt of a killed task
	// occupies a slot.
	CleanupCost time.Duration
	// ChunkBytes is the processing granularity of a task: progress is
	// updated and suspension can take effect at chunk boundaries.
	ChunkBytes int64
	// MemTouchRate is the memory write/read bandwidth used when tasks
	// allocate (write) and finalize (read back) their extra state.
	MemTouchRate float64
	// BufferBytes is the size of the rotating I/O/record buffer window a
	// task keeps hot while processing (part of JVMBaseBytes).
	BufferBytes int64
	// MaxTaskAttempts bounds retries before a task fails terminally.
	MaxTaskAttempts int
	// ConnectionTeardownCost is the SIGTSTP handler's latency per
	// external connection (flushing and closing it).
	ConnectionTeardownCost time.Duration
	// ConnectionSetupCost is the SIGCONT handler's latency per external
	// connection (re-establishing it).
	ConnectionSetupCost time.Duration
	// DisableQuiescentHeartbeats turns off the JobTracker's heartbeat
	// fast path (see JobTracker.Heartbeat). The fast path skips command
	// scanning and scheduler consultation when both are provably no-ops,
	// so disabling it changes nothing but speed; the zero value keeps it
	// on. The knob exists so determinism tests can compare both paths.
	DisableQuiescentHeartbeats bool
}

// DefaultEngineConfig mirrors a 2014 Hadoop 1 deployment with out-of-band
// heartbeats on.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		HeartbeatInterval:      3 * time.Second,
		OutOfBandHeartbeats:    true,
		JVMStartup:             1200 * time.Millisecond,
		CommitCost:             300 * time.Millisecond,
		CleanupCost:            1500 * time.Millisecond,
		ChunkBytes:             8 << 20,
		MemTouchRate:           2e9,
		BufferBytes:            64 << 20,
		MaxTaskAttempts:        4,
		ConnectionTeardownCost: 30 * time.Millisecond,
		ConnectionSetupCost:    60 * time.Millisecond,
	}
}

// Validate checks engine parameters.
func (c *EngineConfig) Validate() error {
	if c.HeartbeatInterval <= 0 {
		return fmt.Errorf("mapreduce: heartbeat interval must be positive")
	}
	if c.ChunkBytes <= 0 {
		return fmt.Errorf("mapreduce: chunk size must be positive")
	}
	if c.MemTouchRate <= 0 {
		return fmt.Errorf("mapreduce: memory touch rate must be positive")
	}
	if c.MaxTaskAttempts <= 0 {
		return fmt.Errorf("mapreduce: max task attempts must be positive")
	}
	if c.BufferBytes < 0 {
		return fmt.Errorf("mapreduce: negative buffer size")
	}
	return nil
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// host identifies the machine a result was measured on. CalibMS is the
// median time of a fixed pure-CPU loop, so figures from different hosts
// can be normalized by it.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CalibMS    float64 `json:"calib_ms"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CalibMS:    calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed 2^24-step xorshift loop five times and returns
// the median in milliseconds. The loop touches no memory, so it tracks
// the core's integer speed and the share of it the host grants.
func calibrate() float64 {
	var ms []float64
	for range 5 {
		start := time.Now()
		x := uint64(88172645463325252)
		for range 1 << 24 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ms)
}

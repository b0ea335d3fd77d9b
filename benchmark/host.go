package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host block every result file carries, so a number is
// never read without the machine and the cache sizes it was taken on.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	T         int    `json:"T"`
	GoVersion string `json:"go_version"`
	L2Bytes   int64  `json:"l2_bytes"`
	LLCBytes  int64  `json:"llc_bytes"`
}

// workerThreads is T: sizes are constants, so the thread count is
// capped instead of scaling the problem with the machine.
func workerThreads() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), T: workerThreads(), GoVersion: runtime.Version()}
	h.L2Bytes, h.LLCBytes = cacheSizes("/sys/devices/system/cpu/cpu0/cache")
	return h
}

// cacheSizes reads cpu0's level-2 size and its highest-level data or
// unified cache from sysfs; both are 0 where sysfs does not say.
func cacheSizes(dir string) (l2, llc int64) {
	idx, _ := filepath.Glob(filepath.Join(dir, "index*"))
	top := 0
	for _, d := range idx {
		typ := readTrim(filepath.Join(d, "type"))
		if typ == "Instruction" {
			continue
		}
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil {
			continue
		}
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if level == 2 {
			l2 = size
		}
		if level > top {
			top, llc = level, size
		}
	}
	return l2, llc
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses sysfs cache sizes such as "2048K" or "260M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 where
// /proc does not provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

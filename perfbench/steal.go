package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTimes returns the host's aggregate steal and total CPU time from
// /proc/stat, in clock ticks, or zeros where it cannot be read. Steal
// is time the hypervisor ran something else while a virtual processor
// of this machine was ready to run.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strings"
)

// host identifies the machine a result was measured on, so a
// comparison of results from two hosts can be recognized as one.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	Platform   string `json:"platform"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

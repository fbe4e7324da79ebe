package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostMeta is recorded in every result file, beside the numbers it
// qualifies.
type hostMeta struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	FSType     string  `json:"fs_type"`
	LLCBytes   int64   `json:"llc_bytes"`
}

func readHostMeta(seed uint64, seconds float64, dataRoot string) hostMeta {
	return hostMeta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Kernel:     strings.TrimSpace(readFileString("/proc/sys/kernel/osrelease")),
		Seed:       seed,
		Seconds:    seconds,
		FSType:     fsType(dataRoot),
		LLCBytes:   llcBytes(),
	}
}

func readFileString(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// gitCommit asks git for HEAD; outside a git checkout (the driver's
// copy is not one) the commit is unknown. The benchmark runs from the
// root of the checkout, and git is told not to look for a repository
// above it.
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir (its nearest existing
// ancestor), so a durability number is never read without knowing
// whether fsync reached a disk.
func fsType(dir string) string {
	for dir != "" {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			switch uint32(st.Type) {
			case 0xEF53:
				return "ext4"
			case 0x01021994:
				return "tmpfs"
			case 0x794c7630:
				return "overlayfs"
			case 0x58465342:
				return "xfs"
			case 0x9123683E:
				return "btrfs"
			}
			return fmt.Sprintf("0x%x", uint32(st.Type))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "unknown"
}

// llcBytes is the size of cpu0's highest-level cache, 0 when sysfs
// does not say.
func llcBytes() int64 {
	var best int64
	bestLevel := 0
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := strconv.Atoi(strings.TrimSpace(readFileString(base + "level")))
		if err != nil || level <= bestLevel {
			continue
		}
		s := strings.TrimSpace(readFileString(base + "size"))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

// rssPeakMB is this process's VmHWM: the peak resident set, which is
// per workload because every workload runs in a process of its own.
func rssPeakMB() float64 {
	for _, line := range strings.Split(readFileString("/proc/self/status"), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// streamArrayCap bounds each STREAM array. Four times this host's
// reported LLC (260 MiB) would be 3 GiB for the three arrays, on a
// machine whose memory is shared with other containers; three arrays
// of 128 MiB still exceed that LLC in sum, so a pass streams from DRAM.
const streamArrayCap = 128 << 20

// streamArrayBytes picks the STREAM array size: four times the LLC,
// 256 MiB when the LLC is unknown, never above streamArrayCap.
func streamArrayBytes(llc int64) int64 {
	want := int64(256 << 20)
	if llc > 0 {
		want = 4 * llc
	}
	return min(want, streamArrayCap)
}

// streamTriadGBps measures sustainable memory bandwidth with the
// STREAM triad a[i] = b[i] + s*c[i] over three float32 arrays of
// arrayBytes each, split over GOMAXPROCS goroutines like the native
// kernels are. It counts 12 bytes per element (two reads, one write)
// and returns the median of three passes after one untimed pass.
func streamTriadGBps(arrayBytes int64) float64 {
	n := int(arrayBytes / 4)
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	workers := runtime.GOMAXPROCS(0)
	pass := func() time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				as, bs, cs := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range as {
					as[i] = bs[i] + 3*cs[i]
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	pass()
	var gbps []float64
	for i := 0; i < 3; i++ {
		gbps = append(gbps, float64(12*n)/pass().Seconds()/1e9)
	}
	if a[n/2] != 7 {
		panic("benchmark: STREAM triad computed the wrong value")
	}
	return median(gbps)
}

// fsyncProbeUs times n 4 KiB write+fsync pairs in dir, in microseconds.
func fsyncProbeUs(dir string, n int) ([]float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us, nil
}

package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qosres/internal/wal"
)

// hostInfo is the fingerprint printed with every result, so a drift in
// the machine or the WAL device shows beside the metrics it moves.
type hostInfo struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	WALFS        string  `json:"wal_fs"`
	AppendSyncUS float64 `json:"wal_append_fsync_us"`
	KernelMS     float64 `json:"ref_kernel_ms"`
}

// fsMagic names the statfs magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if n, ok := fsMagic[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// probeAppendFsync is the device reference: the median latency of
// wal.Log.Append (frame, write, fsync) into a scratch log in dir.
func probeAppendFsync(dir string, n int) (float64, error) {
	probe := filepath.Join(dir, "fsync-probe")
	if err := os.RemoveAll(probe); err != nil {
		return 0, err
	}
	l, err := wal.Open(wal.Options{Dir: probe})
	if err != nil {
		return 0, err
	}
	rec := wal.Record{Type: "probe", Host: "H1", ID: "probe-0000000000",
		Parts: []wal.Part{{Resource: "cpu@H1", Amount: 12.5}}}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := l.Append(rec); err != nil {
			l.Close()
			return 0, err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	return median(lat), os.RemoveAll(probe)
}

func fingerprint(walDir string) (hostInfo, error) {
	sync, err := probeAppendFsync(walDir, 200)
	if err != nil {
		return hostInfo{}, fmt.Errorf("fsync probe: %w", err)
	}
	return hostInfo{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		WALFS:        fsName(walDir),
		AppendSyncUS: sync,
		KernelMS:     hostSlowdown(9) * refKernelMS,
	}, nil
}

// refKernelMS is refKernel's median time on the reference host, the
// one README.md's figures come from. paper_direct divides its timings
// by hostSlowdown, which states them at the reference host's speed.
const refKernelMS = 8.0

var kernelSink float64

// refKernel is fixed work that runs none of the program's code: sort
// 40,000 floats and fold them into a map of 8,000 small heap objects.
// Its time moves with the host's speed alone. The shared reference host
// ran the paper_direct simulation between 44k and 71k decisions/s
// within 100 s; scaled by this kernel's time the spread fell to 12%
// (a 32 MB pointer chase tracked it to 40%, an allocation-heavy map
// build to 26%).
func refKernel() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	m := map[int]*[4]float64{}
	for i, x := range xs {
		k := rng.Intn(8000)
		p := m[k]
		if p == nil {
			p = new([4]float64)
			m[k] = p
		}
		p[i&3] += x
	}
	for _, p := range m {
		kernelSink += p[0]
	}
	return time.Since(t0)
}

// hostSlowdown times refKernel n times and returns its median time over
// refKernelMS: above 1 while the host runs slower than the reference.
func hostSlowdown(n int) float64 {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = float64(refKernel()) / 1e6
	}
	return median(ms) / refKernelMS
}

// cpuStat is the machine-wide CPU time of /proc/stat's first line, in
// clock ticks: all of it, and steal, the time the hypervisor ran other
// guests on this machine's CPUs.
type cpuStat struct {
	total, steal float64
}

// readCPUStat reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, then guest times that user
// and nice already count.
func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("malformed /proc/stat: %q", line)
	}
	var st cpuStat
	for _, field := range f[1:9] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("malformed /proc/stat: %q", line)
		}
		st.total += v
		st.steal = v // the last of the eight
	}
	return st, nil
}

// stealSince is the share of the machine's CPU time between prev and s
// that the hypervisor gave to other guests.
func (s cpuStat) stealSince(prev cpuStat) float64 {
	return ratio(s.steal-prev.steal, s.total-prev.total)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux ABI Go supports).
const clockTicks = 100

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

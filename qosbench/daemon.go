package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"qosres/internal/obs"
)

// daemon is one running cmd/qosserved process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// bootTimeout bounds how long a daemon may take to answer (a recovery
// replays the whole WAL first).
const bootTimeout = 60 * time.Second

// startDaemon execs the daemon and returns once it answers HTTP, with
// the time from exec to first answer. walDir "" runs it without a WAL.
func startDaemon(bin, logPath string, seed int64, walDir string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-wal", walDir,
		"-seed", strconv.FormatInt(seed, 10),
		"-lease", strconv.FormatFloat(float64(leaseTTL), 'g', -1, 64))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark itself is
	// killed before it can stop the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the daemon is always killed
		close(d.done)
	}()
	for {
		resp, err := probe.Get(d.base + "/snapshot")
		if err == nil {
			took := time.Since(t0)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return d, took, nil
		}
		select {
		case <-d.done:
			logf.Close()
			return nil, 0, fmt.Errorf("daemon exited before answering (log %s)", logPath)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(t0) > bootTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("daemon did not answer within %v (log %s)", bootTimeout, logPath)
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon and waits until it has exited. Safe to call
// more than once.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill() // an already-exited process is fine
		<-d.done
	}
	d.log.Close()
}

// client is the load generator's HTTP client: one process, at most two
// connections to the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call sends one request and decodes its 200 reply into out (skipped
// when out is nil); any other status is an error.
func (c *client) call(method, path string, body []byte, out any) error {
	code, data, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// maxSpecCalls bounds the GET /spec sweep that reads availability.
const maxSpecCalls = 5000

// availability reads the daemon's current availability of every
// resource in want from the documents GET /spec hands out. The sampler
// is seeded, so the sweep is the same on every run of a seed.
func (c *client) availability(want []string) (map[string]float64, error) {
	need := make(map[string]bool, len(want))
	for _, r := range want {
		need[r] = true
	}
	got := make(map[string]float64, len(want))
	for i := 0; i < maxSpecCalls && len(got) < len(need); i++ {
		var reply struct {
			Session struct {
				Availability map[string]float64 `json:"availability"`
			} `json:"session"`
		}
		if err := c.call(http.MethodGet, "/spec", nil, &reply); err != nil {
			return nil, err
		}
		for r, a := range reply.Session.Availability {
			if _, seen := got[r]; need[r] && !seen {
				got[r] = a
			}
		}
	}
	if len(got) < len(need) {
		return nil, fmt.Errorf("availability: %d GET /spec calls covered %d of %d resources", maxSpecCalls, len(got), len(need))
	}
	return got, nil
}

// snapshot scrapes the daemon's JSON metrics.
func (c *client) snapshot() (obs.SnapshotData, error) {
	var s obs.SnapshotData
	err := c.call(http.MethodGet, "/snapshot", nil, &s)
	return s, err
}

// metricSum totals a counter or gauge family over its labels.
func metricSum(ms []obs.MetricValue, name string) float64 {
	t := 0.0
	for _, m := range ms {
		if m.Name == name {
			t += m.Value
		}
	}
	return t
}

// histTotals totals a histogram family's count and sum over the series
// whose label key equals val (every series when key is "").
func histTotals(s obs.SnapshotData, name, key, val string) (count, sum float64) {
	for _, h := range s.Histograms {
		if h.Name == name && (key == "" || h.Labels[key] == val) {
			count += float64(h.Count)
			sum += h.Sum
		}
	}
	return count, sum
}

// histMeanUS is the mean, in microseconds, of what a histogram family
// (seconds) observed between two snapshots.
func histMeanUS(before, after obs.SnapshotData, name, key, val string) float64 {
	c0, s0 := histTotals(before, name, key, val)
	c1, s1 := histTotals(after, name, key, val)
	return ratio(s1-s0, c1-c0) * 1e6
}

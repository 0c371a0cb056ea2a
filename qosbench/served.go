package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/sim"
	"qosres/internal/spec"
	"qosres/internal/topo"
	"qosres/internal/wal"
)

// servedPlan sizes one served workload. Runs are sized in operations so
// that RSS, WAL volume and recovery time, which grow with the sessions
// served, and the failed share compare across runs; --seconds scales
// the operation counts, which are calibrated so a run of the reference
// host lasts about that long.
type servedPlan struct {
	durable bool
	// openRate is the open-loop Poisson arrival rate (cycles/s), below
	// the closed-loop knee; openShare is the share of --seconds its
	// schedule spans.
	openRate  float64
	openShare float64
	// closedPerSecond is the closed-loop cycle count per --second.
	closedPerSecond int
}

const (
	// setupBoots is how many times a run boots the daemon to time
	// set-up; the median is reported and the last boot serves the load.
	setupBoots = 9
	// docPool is how many distinct session documents a run cycles
	// through.
	docPool = 256
	// liveSessions are left established across restart 1.
	liveSessions = 8
	// replayCycleCount is the length of the traced run's in-process replay.
	replayCycleCount = 300
)

// leaseTTL is the served workloads' session lease (seconds). Cycles
// last milliseconds, so no lease lapses under load; restart 2 stays
// down longer than it.
const leaseTTL broker.Time = 2

// cycleTimes are one cycle's per-operation wire latencies.
type cycleTimes struct {
	est, down, up, td time.Duration
}

// cycleResult is one establish → down → up → teardown cycle.
type cycleResult struct {
	times    cycleTimes
	rank     int
	opErr    error // an operation the daemon did not complete
	checkErr error // a completed operation whose reply is wrong
}

// cycle runs one full cycle of document d; the establish latency is
// taken from due, the other operations from their send time.
func (c *client) cycle(d *doc, due time.Time, sl *spanLog, id int) cycleResult {
	var res cycleResult
	root := sl.begin("cycle", 0, id)
	defer sl.end(root)

	s := sl.begin("http.establish", root, id)
	var est establishReply
	err := c.call(http.MethodPost, "/establish", d.body, &est)
	sl.end(s)
	res.times.est = time.Since(due)
	if err != nil {
		res.opErr = err
		return res
	}
	res.rank = est.Rank
	if res.checkErr = checkEstablish(d.ranking, est); res.checkErr != nil {
		c.teardown(est.ID)
		return res
	}
	down := lowerLevel(d.ranking, est.Level)
	if down == "" {
		res.opErr = fmt.Errorf("establish %s: granted the lowest level %q, no downgrade exists", est.ID, est.Level)
		c.teardown(est.ID)
		return res
	}
	for _, step := range []struct {
		span, level, outcome string
		lat                  *time.Duration
	}{
		{"http.renegotiate_down", down, "downgraded", &res.times.down},
		{"http.renegotiate_up", est.Level, "upgraded", &res.times.up},
	} {
		body, _ := json.Marshal(spec.RenegotiateRequest{Session: est.ID, Level: step.level}) // plain strings always encode
		s := sl.begin(step.span, root, id)
		t0 := time.Now()
		var rr spec.RenegotiateReply
		err := c.call(http.MethodPost, "/renegotiate", body, &rr)
		*step.lat = time.Since(t0)
		sl.end(s)
		if err != nil {
			res.opErr = err
			c.teardown(est.ID)
			return res
		}
		if res.checkErr = checkRenegotiate(d.ranking, est.ID, step.level, step.outcome, rr); res.checkErr != nil {
			c.teardown(est.ID)
			return res
		}
	}
	s = sl.begin("http.teardown", root, id)
	t0 := time.Now()
	var td struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	err = c.call(http.MethodPost, "/teardown?id="+est.ID, nil, &td)
	res.times.td = time.Since(t0)
	sl.end(s)
	if err != nil {
		res.opErr = err
	} else if td.ID != est.ID || td.Status != "released" {
		res.checkErr = fmt.Errorf("teardown %s: reply %+v", est.ID, td)
	}
	return res
}

// teardown releases a session after a failed cycle step so the books
// still drain; its own failure shows in the drain check.
func (c *client) teardown(id string) {
	_ = c.call(http.MethodPost, "/teardown?id="+id, nil, nil)
}

// phaseResult aggregates one load phase.
type phaseResult struct {
	cycles []cycleResult
	late   []float64     // open loop: generator lateness, ms
	wall   time.Duration // closed loop: from the first send to the last reply
	spans  []span
}

func (p *phaseResult) lat(pick func(cycleTimes) time.Duration) []float64 {
	out := make([]float64, 0, len(p.cycles))
	for _, c := range p.cycles {
		if c.opErr == nil && c.checkErr == nil {
			out = append(out, float64(pick(c.times))/1e6)
		}
	}
	return out
}

// openLoop offers n cycles as a Poisson arrival stream at rate per
// second. Arrivals never wait for completions; two workers, one
// connection each, serve them in arrival order, so a stall delays the
// arrivals queued behind it and that wait is in their latency.
func openLoop(c *client, docs *docSet, first, n int, rate float64, seed int64, epoch time.Time, traced bool) *phaseResult {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	offsets := make([]time.Duration, n)
	at := 0.0
	for i := range offsets {
		at += rng.ExpFloat64() / rate
		offsets[i] = time.Duration(at * float64(time.Second))
	}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // the whole schedule: the generator never blocks on the workers
	res := &phaseResult{cycles: make([]cycleResult, n), late: make([]float64, 0, n)}
	logs := workerLogs(traced, epoch, 0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(sl *spanLog) {
			defer wg.Done()
			for j := range jobs {
				d := &docs.docs[(first+j.i)%len(docs.docs)]
				res.cycles[j.i] = c.cycle(d, j.due, sl, first+j.i)
			}
		}(logs[w])
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		res.late = append(res.late, float64(time.Since(due))/1e6)
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	res.spans = mergeLogs(logs)
	return res
}

// closedLoop runs n cycles on two connections, each sending its next
// cycle as soon as the previous one completed.
func closedLoop(c *client, docs *docSet, first, n int, epoch time.Time, traced bool) *phaseResult {
	res := &phaseResult{cycles: make([]cycleResult, n)}
	logs := workerLogs(traced, epoch, 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(sl *spanLog) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := &docs.docs[(first+i)%len(docs.docs)]
				res.cycles[i] = c.cycle(d, time.Now(), sl, first+i)
			}
		}(logs[w])
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.spans = mergeLogs(logs)
	return res
}

// workerLogs returns the span logs of a phase's two workers, nil logs
// when untraced. Each log owns a disjoint ID range.
func workerLogs(traced bool, epoch time.Time, phase int) []*spanLog {
	logs := make([]*spanLog, 2)
	if traced {
		for i := range logs {
			logs[i] = newSpanLog(epoch, (2*phase+i+1)<<40)
		}
	}
	return logs
}

func mergeLogs(logs []*spanLog) []span {
	var out []span
	for _, l := range logs {
		if l != nil {
			out = append(out, l.spans...)
		}
	}
	return out
}

// tally folds a phase's cycles into the run outcome.
func (o *outcome) tally(p *phaseResult) (admitted int, rankSum float64) {
	for _, c := range p.cycles {
		o.attempted++
		switch {
		case c.opErr != nil:
			o.failed++
			fmt.Fprintf(os.Stderr, "qosbench: failed operation: %v\n", c.opErr)
		case c.checkErr != nil:
			o.check(c.checkErr)
		}
		if c.rank > 0 {
			admitted++
			rankSum += float64(c.rank)
		}
	}
	return admitted, rankSum
}

// runServed runs served_volatile or served_durable against the real
// daemon binary.
func runServed(o *options, plan servedPlan) (*outcome, error) {
	out := newOutcome()
	docs, err := prepareDocs(o.seed, docPool)
	if err != nil {
		return nil, err
	}
	walRoot := filepath.Join(o.out, "wal")
	if err := os.RemoveAll(walRoot); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, err
	}
	host, err := fingerprint(walRoot)
	if err != nil {
		return nil, err
	}
	printHost(host)
	out.values["wal.append_fsync_us"] = host.AppendSyncUS
	logPath := filepath.Join(o.out, "daemon.log")
	_ = os.Remove(logPath) // a fresh log per run; absent is fine
	walDir := func(name string) string {
		if !plan.durable {
			return ""
		}
		return filepath.Join(walRoot, name)
	}

	// Set-up: boot the daemon several times on fresh state; the last
	// boot serves the load.
	var boots []float64
	var d *daemon
	atBoot, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupBoots; i++ {
		dd, took, err := startDaemon(o.daemon, logPath, o.seed, walDir(fmt.Sprintf("boot-%d", i)))
		if err != nil {
			return nil, err
		}
		boots = append(boots, took.Seconds())
		if i < setupBoots-1 {
			dd.kill()
		} else {
			d = dd
		}
	}
	defer func() { d.kill() }()
	afterBoot, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	bootSteal := afterBoot.stealSince(atBoot)
	loadWAL := walDir(fmt.Sprintf("boot-%d", setupBoots-1))

	c := newClient(d.base)
	defer c.close()
	baseline, err := c.availability(docs.resources)
	if err != nil {
		return nil, err
	}

	nOpen := int(plan.openRate * plan.openShare * float64(o.seconds))
	nClosed := plan.closedPerSecond * o.seconds
	epoch := time.Now()
	var snaps []obs.SnapshotData
	scrape := func() error {
		if !o.traced {
			return nil
		}
		s, err := c.snapshot()
		snaps = append(snaps, s)
		return err
	}
	if err := scrape(); err != nil {
		return nil, err
	}
	atOpen, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	open := openLoop(c, docs, 0, nOpen, plan.openRate, o.seed, epoch, o.traced)
	atClosed, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	if err := scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	closed := closedLoop(c, docs, nOpen, nClosed, epoch, o.traced)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	atEnd, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	if err := scrape(); err != nil {
		return nil, err
	}
	a1, r1 := out.tally(open)
	a2, r2 := out.tally(closed)
	cycles := float64(nOpen + nClosed)

	estLat := open.lat(func(t cycleTimes) time.Duration { return t.est })
	// Wall times count only the time the hypervisor left to this
	// machine (README.md, "The host's speed"): on the shared reference
	// host other guests took up to a quarter of it within minutes, and
	// the closed-loop rate fell with it from 750 to 470 cycles/s.
	openSteal, closedSteal := atClosed.stealSince(atOpen), atEnd.stealSince(atClosed)
	raw := map[string]float64{
		"setup_s":          median(boots),
		"ops_per_s":        float64(nClosed) / closed.wall.Seconds(),
		"establish_p50_ms": median(estLat),
	}
	opsPerS := raw["ops_per_s"] / (1 - closedSteal)
	out.values["setup_s"] = raw["setup_s"] * (1 - bootSteal)
	out.values["ops_per_s"] = opsPerS
	out.values["cpu_ms_per_op"] = float64(cpu1-cpu0) / 1e6 / float64(nClosed)
	out.values["establish_p50_ms"] = raw["establish_p50_ms"] * (1 - openSteal)
	fmt.Printf("host steal: set-up %.3f, open loop %.3f, closed loop %.3f; unscaled:", bootSteal, openSteal, closedSteal)
	for _, name := range []string{"setup_s", "ops_per_s", "establish_p50_ms"} {
		fmt.Printf(" %s %.6g", name, raw[name])
	}
	fmt.Println()
	out.values["admitted_sessions"] = float64(a1 + a2)
	out.values["qos_rank_sum"] = r1 + r2
	if out.values["rss_mb"], err = procHWM(d.pid()); err != nil {
		return nil, err
	}

	// Drain: every cycle was torn down, so the books are back to the
	// pre-load baseline.
	after, err := c.availability(docs.resources)
	if err != nil {
		return nil, err
	}
	out.check(checkAvailEqual("drain after load", baseline, after))

	if plan.durable {
		if err := reportDaemonWAL(loadWAL, cycles, snaps); err != nil {
			return nil, err
		}
		if d, err = restarts(o, out, c, d, docs, baseline, loadWAL, logPath); err != nil {
			return nil, err
		}
	}

	if o.traced {
		v := out.values
		v["trace.ops_per_s"] = opsPerS
		v["load.generator_late_p50_ms"] = median(open.late)
		v["served.renegotiate_down_p50_ms"] = median(open.lat(func(t cycleTimes) time.Duration { return t.down }))
		v["served.renegotiate_up_p50_ms"] = median(open.lat(func(t cycleTimes) time.Duration { return t.up }))
		v["served.teardown_p50_ms"] = median(open.lat(func(t cycleTimes) time.Duration { return t.td }))
		// Daemon-side layers over the closed-loop phase, whose load is
		// steady.
		mid, end := snaps[1], snaps[2]
		stage := func(name string) float64 { return histMeanUS(mid, end, obs.MetricPlanStage, "stage", name) }
		v["qrg.build_us"] = stage(obs.StageBuild)
		v["core.plan_us"] = stage(obs.StagePlan)
		v["broker.snapshot_us"] = stage(obs.StageSnapshot)
		v["broker.reserve_us"] = 0 // the direct path's stage; the runtime's is proxy.commit_us
		v["proxy.commit_us"] = stage(obs.StageReserve)
		v["proxy.admit_retries_per_establish"] = (metricSum(end.Counters, obs.MetricAdmitRetries) - metricSum(mid.Counters, obs.MetricAdmitRetries)) / float64(nClosed)
		v["qrg.templates_cached"] = metricSum(end.Gauges, obs.MetricTemplatesCached)
		var bodyBytes float64
		for _, dd := range docs.docs {
			bodyBytes += float64(len(dd.body))
		}
		v["http.request_bytes"] = bodyBytes / float64(len(docs.docs))

		// The in-process replay with the workload's WAL setting gives the
		// spec, proxy, template and Go runtime layers. The WAL layer is
		// always measured on a durable replay of the same documents, so
		// it is reported on served_volatile too, whose daemon has no WAL.
		layers, spans, err := replayInProcess(o, plan.durable, docs, 1<<50)
		if err != nil {
			return nil, err
		}
		if !plan.durable {
			walLayers, _, err := replayInProcess(o, true, docs, 2<<50)
			if err != nil {
				return nil, err
			}
			for name, x := range walLayers {
				if strings.HasPrefix(name, "wal.") {
					layers[name] = x
				}
			}
		}
		for name, x := range layers {
			v[name] = x
		}
		// The wire side comes from the open loop only: it is uncontended,
		// like the in-process replay, while the closed loop's two workers
		// share the CPUs with the daemon and would count queueing as HTTP.
		wireEst := median(durationsUS(open.spans, "http.establish"))
		v["http.establish_self_us"] = wireEst - v["proxy.establish_us"]
		all := append(append(open.spans, closed.spans...), spans...)
		if err := writeSpans(filepath.Join(o.out, "spans-"+o.workload+".jsonl"), all, os.Stdout); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reportDaemonWAL prints the daemon's own WAL volume over the load
// phases; traced runs also give its append count.
func reportDaemonWAL(dir string, cycles float64, snaps []obs.SnapshotData) error {
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	fmt.Printf("daemon WAL: %.0f bytes per cycle", float64(n)/cycles)
	if len(snaps) == 3 {
		appends := metricSum(snaps[2].Counters, obs.MetricWALAppends) - metricSum(snaps[0].Counters, obs.MetricWALAppends)
		fmt.Printf(", %.2f appends per cycle", appends/cycles)
	}
	fmt.Println()
	return nil
}

// restarts runs served_durable's crash steps on the daemon that served
// the load and returns the daemon left running.
//
//  1. Establish live sessions, SIGKILL, restart at once with recovery:
//     the recovered books must hold exactly what they held before the
//     kill. The time from exec to answer is printed as recover_s.
//  2. SIGKILL, stay down longer than the lease TTL, restart: recovery's
//     lapsed-lease sweep should return the books to the baseline. It
//     reclaims nothing today, because the replayed expiries were
//     stamped on the crashed process's clock and every process's
//     WallClock restarts at zero; the step counts as one failed
//     operation per run.
func restarts(o *options, out *outcome, c *client, d *daemon, docs *docSet,
	baseline map[string]float64, walDir, logPath string) (*daemon, error) {
	for i := 0; i < liveSessions; i++ {
		out.attempted++
		var est establishReply
		dd := &docs.docs[i%len(docs.docs)]
		if err := c.call(http.MethodPost, "/establish", dd.body, &est); err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "qosbench: failed operation: live establish: %v\n", err)
			continue
		}
		out.check(checkEstablish(dd.ranking, est))
	}
	held, err := c.availability(docs.resources)
	if err != nil {
		return d, err
	}
	c.close()
	d.kill()

	out.attempted++
	d, took, err := startDaemon(o.daemon, logPath, o.seed, walDir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("daemon recovery: recover_s %.6f\n", took.Seconds())
	*c = *newClient(d.base)
	recovered, err := c.availability(docs.resources)
	if err != nil {
		return d, err
	}
	out.check(checkAvailEqual("restart 1 recovery", held, recovered))

	c.close()
	d.kill()
	time.Sleep(time.Duration(float64(leaseTTL)*float64(time.Second)) + 500*time.Millisecond)
	out.attempted++
	d, _, err = startDaemon(o.daemon, logPath, o.seed, walDir)
	if err != nil {
		return nil, err
	}
	*c = *newClient(d.base)
	swept, err := c.availability(docs.resources)
	if err != nil {
		return d, err
	}
	if err := checkAvailEqual("restart 2 lapsed-lease reclaim", baseline, swept); err != nil {
		out.failed++
		fmt.Fprintf(os.Stderr, "qosbench: failed operation: %v\n", err)
	}
	return d, nil
}

// replayInProcess hosts the served deployment in this process, with or
// without a WAL, and replays the run's documents in series, timing each
// public call. It returns the spec, proxy, template and Go runtime layer
// metrics, plus the WAL layer's when durable, and its spans (IDs from
// base up).
func replayInProcess(o *options, durable bool, docs *docSet, base int) (map[string]float64, []span, error) {
	reg := obs.New()
	opts := sim.ServedOptions{Seed: o.seed, LeaseTTL: leaseTTL, Registry: reg}
	if durable {
		opts.WALDir = filepath.Join(o.out, "wal", fmt.Sprintf("replay-%d", base))
	}
	env, err := sim.NewServedEnv(opts)
	if err != nil {
		return nil, nil, err
	}
	spans, v, err := replayCycles(env, reg, docs, base)
	if cerr := env.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close replay deployment: %w", cerr)
	}
	if err != nil || !durable {
		return v, spans, err
	}
	n := float64(replayCycleCount)
	appends := metricSum(reg.Snapshot().Counters, obs.MetricWALAppends)
	bytes, err := dirBytes(opts.WALDir)
	if err != nil {
		return nil, nil, err
	}
	v["wal.appends_per_cycle"] = appends / n
	v["wal.bytes_per_cycle"] = float64(bytes) / n
	v["wal.bytes_per_append"] = ratio(float64(bytes), appends)
	t0 := time.Now()
	recs, _, err := wal.Replay(opts.WALDir)
	if err != nil {
		return nil, nil, fmt.Errorf("replay %s: %w", opts.WALDir, err)
	}
	v["wal.replay_s"] = time.Since(t0).Seconds()
	v["wal.replay_records"] = float64(len(recs))
	opts.Recover, opts.Registry = true, nil
	t0 = time.Now()
	rec, err := sim.NewServedEnv(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("recover %s: %w", opts.WALDir, err)
	}
	v["wal.recover_s"] = time.Since(t0).Seconds()
	return v, spans, rec.Close()
}

// replayCycles runs replayCycleCount cycles on env in series.
func replayCycles(env *sim.ServedEnv, reg *obs.Registry, docs *docSet, base int) ([]span, map[string]float64, error) {
	hits := reg.Counter(obs.MetricTemplateHits, "")
	sl := newSpanLog(time.Now(), base)
	ctx := context.Background()
	var templateHits float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < replayCycleCount; i++ {
		d := &docs.docs[i%len(docs.docs)]
		root := sl.begin("cycle", 0, i)
		s := sl.begin("spec.decode", root, i)
		var req establishRequest
		err := json.Unmarshal(d.body, &req)
		sl.end(s)
		if err != nil {
			return nil, nil, err
		}
		s = sl.begin("spec.build", root, i)
		_, _, _, err = req.Session.Build()
		sl.end(s)
		if err != nil {
			return nil, nil, err
		}
		h0 := hits.Value()
		s = sl.begin("proxy.establish", root, i)
		sess, err := env.Establish(ctx, topo.HostID(req.MainHost), req.Session)
		sl.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("in-process establish: %w", err)
		}
		templateHits += hits.Value() - h0
		level := sess.CurrentPlan().EndToEnd.Name
		for _, step := range []struct{ span, level string }{
			{"proxy.renegotiate_down", lowerLevel(d.ranking, level)},
			{"proxy.renegotiate_up", level},
		} {
			s = sl.begin(step.span, root, i)
			err := env.Renegotiate(ctx, sess, step.level)
			sl.end(s)
			if err != nil {
				return nil, nil, fmt.Errorf("in-process %s: %w", step.span, err)
			}
		}
		s = sl.begin("proxy.teardown", root, i)
		err = sess.Release()
		sl.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("in-process teardown: %w", err)
		}
		sl.end(root)
	}
	runtime.ReadMemStats(&ms1)
	n := float64(replayCycleCount)
	v := map[string]float64{
		"spec.decode_us":                  median(durationsUS(sl.spans, "spec.decode")),
		"spec.build_us":                   median(durationsUS(sl.spans, "spec.build")),
		"proxy.establish_us":              median(durationsUS(sl.spans, "proxy.establish")),
		"proxy.renegotiate_down_us":       median(durationsUS(sl.spans, "proxy.renegotiate_down")),
		"proxy.renegotiate_up_us":         median(durationsUS(sl.spans, "proxy.renegotiate_up")),
		"proxy.teardown_us":               median(durationsUS(sl.spans, "proxy.teardown")),
		"qrg.template_hits_per_establish": templateHits / n,
		"go.allocs_per_op":                float64(ms1.Mallocs-ms0.Mallocs) / n,
		"go.alloc_bytes_per_op":           float64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
		"go.gc_cycles_per_kop":            float64(ms1.NumGC-ms0.NumGC) / n * 1000,
	}
	return sl.spans, v, nil
}

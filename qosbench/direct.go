package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qrg"
	"qosres/internal/sim"
	"qosres/internal/svc"
	"qosres/internal/trace"
)

const (
	// paperRate is the heaviest figure-11 load: 240 sessions per 60 TU,
	// where about 40% of arrivals are refused.
	paperRate = 240
	// seedsPerSecond sizes paper_direct: the number of simulation seeds
	// (each run with both planners over the paper's 10800 TU) per
	// --second, calibrated on the reference host.
	seedsPerSecond = 0.4
	// directSetups is how many times a run builds the figure-10
	// environment to time set-up (it takes under a millisecond).
	directSetups = 101
	// kernelRuns is how many times refKernel is timed before each
	// simulation; the set-up builds time it before every tenth build.
	kernelRuns = 5
	// parityDuration is the simulated span of the runtime-parity rerun;
	// the runtime path sends every session through the proxies, so it
	// is shorter than a measured run.
	parityDuration = 1800
	// fastPathSamples is how many sessions the fast-path check plans.
	fastPathSamples = 1000
	// decisionWindow is how many consecutive decisions one throughput
	// sample spans (about 40 ms on the reference host).
	decisionWindow = 2000
)

// decisionTimer times each arrival's decision on the direct path: the
// simulation is single-threaded and decides an arrival before it emits
// the next event, so the wall time from an Arrival event to the
// arrival's verdict is the in-process establish latency. It also keeps
// each decision's completion time within the current simulation.
type decisionTimer struct {
	epoch time.Time
	start time.Time
	lat   []float64       // ms
	done  []time.Duration // since epoch; reset per simulation
}

// Trace implements trace.Tracer.
func (t *decisionTimer) Trace(ev trace.Event) {
	switch ev.Kind {
	case trace.Arrival:
		t.start = time.Now()
	case trace.Reserved, trace.PlanFailed, trace.ReserveFailed:
		now := time.Now()
		t.lat = append(t.lat, float64(now.Sub(t.start))/1e6)
		t.done = append(t.done, now.Sub(t.epoch))
	}
}

func tallyOf(res *sim.Result) directTally {
	m := res.Metrics.Overall
	return directTally{decided: m.Attempts, admitted: m.Successes, rankSum: m.QoSSum}
}

func drainCheck(res *sim.Result) error {
	avail := map[string]float64{}
	for _, b := range res.Pool.LocalBrokers() {
		avail[b.Resource()] = b.Available()
	}
	return checkPoolDrained(avail, res.Capacities)
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runDirect runs paper_direct: sim.Run in process on the direct path.
func runDirect(o *options) (*outcome, error) {
	out := newOutcome()
	probeDir := filepath.Join(o.out, "wal")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return nil, err
	}
	host, err := fingerprint(probeDir)
	if err != nil {
		return nil, err
	}
	printHost(host)

	// Every paper_direct timing is divided by the host's slowdown against
	// the reference host (see refKernel), measured before each simulation
	// and between the set-up builds: the simulation is CPU-bound in one
	// goroutine, and on a shared host its raw speed drifts by a third
	// within minutes. raw keeps the unscaled figures for the log.
	raw := map[string]float64{}

	// Set-up: the figure-10 environment build (a run whose horizon ends
	// before the first arrival). Each build starts from a collected heap,
	// as a fresh process's would.
	var setups, kernelMS []float64
	for i := 0; i < directSetups; i++ {
		if i%10 == 0 {
			kernelMS = append(kernelMS, float64(refKernel())/1e6)
		}
		cfg := sim.DefaultConfig(sim.AlgBasic, paperRate, o.seed)
		cfg.Duration = 1e-9
		runtime.GC()
		t0 := time.Now()
		if _, err := sim.Run(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupSlow := median(kernelMS) / refKernelMS
	raw["setup_s"] = median(setups)
	out.values["setup_s"] = raw["setup_s"] / setupSlow

	nSeeds := max(1, int(seedsPerSecond*float64(o.seconds)+0.5))
	var reg *obs.Registry
	var sl *spanLog
	if o.traced {
		reg, sl = obs.New(), newSpanLog(time.Now(), 0)
	}
	timer := &decisionTimer{}
	tallies := map[sim.Algorithm]directTally{}
	// Decision rates over windows of consecutive decisions and CPU per
	// decision per simulation; the run reports their medians, so
	// interference from outside the benchmark that stalls the process
	// for a while moves few samples.
	var rates, cpus []float64
	var rawRates, rawCPUs []float64
	var slows []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k := 0; k < nSeeds; k++ {
		seed := o.seed*1000 + int64(k)
		for _, alg := range []sim.Algorithm{sim.AlgBasic, sim.AlgTradeoff} {
			cfg := sim.DefaultConfig(alg, paperRate, seed)
			cfg.Tracer = timer
			cfg.Obs = reg
			slow := hostSlowdown(kernelRuns)
			slows = append(slows, slow)
			nLat := len(timer.lat)
			s := sl.begin("sim.run."+string(alg), 0, k)
			cpu0 := cpuTime()
			timer.epoch, timer.done = time.Now(), timer.done[:0]
			res, err := sim.Run(cfg)
			cpu := cpuTime() - cpu0
			sl.end(s)
			if err != nil {
				return nil, err
			}
			out.check(drainCheck(res))
			t := tallyOf(res)
			simRates := windowRates(timer.done, decisionWindow)
			simCPU := float64(cpu) / 1e6 / float64(t.decided)
			rawRates = append(rawRates, simRates...)
			rawCPUs = append(rawCPUs, simCPU)
			for _, r := range simRates {
				rates = append(rates, r*slow)
			}
			cpus = append(cpus, simCPU/slow)
			for i := nLat; i < len(timer.lat); i++ {
				timer.lat[i] /= slow
			}
			acc := tallies[alg]
			acc.decided += t.decided
			acc.admitted += t.admitted
			acc.rankSum += t.rankSum
			tallies[alg] = acc
		}
	}
	runtime.ReadMemStats(&ms1)
	rss, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	basic, tradeoff := tallies[sim.AlgBasic], tallies[sim.AlgTradeoff]
	decided := float64(basic.decided + tradeoff.decided)
	out.attempted = basic.decided + tradeoff.decided
	opsPerS := median(rates)
	out.values["ops_per_s"] = opsPerS
	out.values["cpu_ms_per_op"] = median(cpus)
	out.values["establish_p50_ms"] = median(timer.lat)
	raw["ops_per_s"], raw["cpu_ms_per_op"] = median(rawRates), median(rawCPUs)
	fmt.Printf("host slowdown against the reference host: median %.3f (set-up %.3f); unscaled:", median(slows), setupSlow)
	for _, name := range []string{"setup_s", "ops_per_s", "cpu_ms_per_op"} {
		fmt.Printf(" %s %.6g", name, raw[name])
	}
	fmt.Println()
	out.values["rss_mb"] = rss
	out.values["admitted_sessions"] = float64(basic.admitted + tradeoff.admitted)
	out.values["qos_rank_sum"] = basic.rankSum + tradeoff.rankSum
	out.check(checkPlannerOrder(basic, tradeoff))

	s := sl.begin("check.runtime_parity", 0, 0)
	err = runtimeParity(o.seed*1000, out)
	sl.end(s)
	if err != nil {
		return nil, err
	}
	s = sl.begin("check.fast_path", 0, 0)
	err = fastPathCheck(o.seed, out)
	sl.end(s)
	if err != nil {
		return nil, err
	}

	if o.traced {
		v := out.values
		for _, d := range perLayer {
			v[d.name] = 0 // layers this workload does not reach
		}
		v["wal.append_fsync_us"] = host.AppendSyncUS
		v["trace.ops_per_s"] = opsPerS
		end := reg.Snapshot()
		none := obs.SnapshotData{}
		v["qrg.build_us"] = histMeanUS(none, end, obs.MetricPlanStage, "stage", obs.StageBuild)
		v["core.plan_us"] = histMeanUS(none, end, obs.MetricPlanStage, "stage", obs.StagePlan)
		v["broker.snapshot_us"] = histMeanUS(none, end, obs.MetricPlanStage, "stage", obs.StageSnapshot)
		v["broker.reserve_us"] = histMeanUS(none, end, obs.MetricPlanStage, "stage", obs.StageReserve)
		v["qrg.template_hits_per_establish"] = metricSum(end.Counters, obs.MetricTemplateHits) / decided
		v["qrg.templates_cached"] = metricSum(end.Gauges, obs.MetricTemplatesCached)
		v["go.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / decided
		v["go.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / decided
		v["go.gc_cycles_per_kop"] = float64(ms1.NumGC-ms0.NumGC) / decided * 1000
		if err := writeSpans(filepath.Join(o.out, "spans-"+o.workload+".jsonl"), sl.spans, os.Stdout); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runtimeParity reruns one seed through the QoSProxy runtime and checks
// it decides exactly as the direct path did. The rerun is shorter than
// a measured run, so the direct side is rerun at the same horizon.
func runtimeParity(seed int64, out *outcome) error {
	var tallies [2]directTally
	for i, useRuntime := range []bool{false, true} {
		cfg := sim.DefaultConfig(sim.AlgBasic, paperRate, seed)
		cfg.Duration = parityDuration
		cfg.UseRuntime = useRuntime
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		tallies[i] = tallyOf(res)
	}
	out.check(checkRuntimeParity(tallies[0], tallies[1]))
	return nil
}

// fastPathCheck plans a sample of the workload's sessions against
// squeezed availability both ways: compiled template + max-plus
// Dijkstra, and exhaustive search over the reference QRG.
func fastPathCheck(seed int64, out *outcome) error {
	env, err := sim.NewServedEnv(sim.ServedOptions{Seed: seed, Rate: paperRate})
	if err != nil {
		return err
	}
	defer env.Close()
	rng := rand.New(rand.NewSource(seed*31 + 7))
	agree := 0
	for i := 0; i < fastPathSamples; i++ {
		offer, err := env.SampleSession()
		if err != nil {
			return err
		}
		service, binding, snap, err := offer.Doc.Build()
		if err != nil {
			return err
		}
		// Squeeze every resource to between 2% and 60% of what is free,
		// so levels drop out and some sessions become infeasible.
		for r, a := range snap.Avail {
			snap.Avail[r] = a * (0.02 + 0.58*rng.Float64())
		}
		tpl, err := qrg.Compile(service, binding)
		if err != nil {
			return err
		}
		g, err := tpl.Instantiate(snap)
		if err != nil {
			return err
		}
		fast, err := outcomeOf(core.Basic{}.Plan(g))
		if err != nil {
			return err
		}
		ref, err := refOutcome(service, binding, snap)
		if err != nil {
			return err
		}
		if err := checkFastPath(fast, ref, snap.Avail); err != nil {
			out.check(fmt.Errorf("session %d (%s): %w", i, service.Name, err))
			continue
		}
		agree++
	}
	fmt.Printf("fast path: %d of %d sampled sessions agree with exhaustive search\n", agree, fastPathSamples)
	return nil
}

func refOutcome(service *svc.Service, binding svc.Binding, snap *broker.Snapshot) (planOutcome, error) {
	g, err := qrg.Build(service, binding, snap)
	if err != nil {
		return planOutcome{}, err
	}
	return outcomeOf(core.Exhaustive{}.Plan(g))
}

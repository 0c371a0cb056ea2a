package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"qosres/internal/core"
	"qosres/internal/qos"
	"qosres/internal/spec"
)

// Output checks. Each compares an observation against a property the
// method must have or against a value computed apart from the path
// under test; checks_test.go shows each one rejecting a perturbed
// observation.

// establishReply is the part of qosserved's POST /establish reply the
// benchmark reads.
type establishReply struct {
	ID    string  `json:"id"`
	Level string  `json:"level"`
	Rank  int     `json:"rank"`
	Psi   float64 `json:"psi"`
}

// rankOf is the paper's level number of name in a best-first ranking
// (higher is better), computed here rather than trusted from the reply;
// 0 when the level is not ranked.
func rankOf(ranking []string, name string) int {
	for i, l := range ranking {
		if l == name {
			return len(ranking) - i
		}
	}
	return 0
}

// checkEstablish: the granted level is one of the document's, its rank
// is the ranking's, and Ψ is a contention index in [0, 1].
func checkEstablish(ranking []string, r establishReply) error {
	want := rankOf(ranking, r.Level)
	if want == 0 {
		return fmt.Errorf("establish %s: level %q not in ranking %v", r.ID, r.Level, ranking)
	}
	if r.Rank != want {
		return fmt.Errorf("establish %s: rank %d, ranking gives %d for %q", r.ID, r.Rank, want, r.Level)
	}
	if !(r.Psi >= 0 && r.Psi <= 1) {
		return fmt.Errorf("establish %s: psi %v outside [0,1]", r.ID, r.Psi)
	}
	return nil
}

// checkRenegotiate: the session moved to exactly the requested level,
// its rank is the ranking's, and the reported direction matches.
func checkRenegotiate(ranking []string, id, requested, wantOutcome string, r spec.RenegotiateReply) error {
	if r.Session != id {
		return fmt.Errorf("renegotiate %s: reply names session %q", id, r.Session)
	}
	if r.Level != requested {
		return fmt.Errorf("renegotiate %s: asked for %q, got %q", id, requested, r.Level)
	}
	if want := rankOf(ranking, requested); r.Rank != want {
		return fmt.Errorf("renegotiate %s: rank %d, ranking gives %d for %q", id, r.Rank, want, requested)
	}
	if r.Outcome != wantOutcome {
		return fmt.Errorf("renegotiate %s: outcome %q, want %q", id, r.Outcome, wantOutcome)
	}
	return nil
}

// drainTolerance is the absolute slack of the availability checks, the
// same the repository's chaos drain invariant allows: broker books keep
// a running reserved total, so a book that held and released thousands
// of holds can sit an ulp away from its capacity. A leaked or replayed
// hold is whole units.
const drainTolerance = 1e-6

// checkAvailEqual: every resource in want reads the same in got, within
// drainTolerance.
func checkAvailEqual(what string, want, got map[string]float64) error {
	var bad []string
	for r, w := range want {
		g, ok := got[r]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s missing", r))
			continue
		}
		if math.Abs(g-w) > drainTolerance {
			bad = append(bad, fmt.Sprintf("%s %v != %v", r, g, w))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		n := len(bad)
		if n > 3 {
			bad = append(bad[:3], "...")
		}
		return fmt.Errorf("%s: availability differs on %d resources: %v", what, n, bad)
	}
	return nil
}

// directTally sums one planner's decisions over a set of simulation
// runs.
type directTally struct {
	decided, admitted int
	rankSum           float64
}

func (t directTally) avgQoS() float64 { return ratio(t.rankSum, float64(t.admitted)) }

// checkPlannerOrder: the tradeoff policy trades QoS for admissions, so
// it admits at least as many sessions as basic, and basic's average QoS
// is at least tradeoff's (the paper's figure-11 shape).
func checkPlannerOrder(basic, tradeoff directTally) error {
	if tradeoff.admitted < basic.admitted {
		return fmt.Errorf("planner order: tradeoff admitted %d < basic %d", tradeoff.admitted, basic.admitted)
	}
	if basic.avgQoS() < tradeoff.avgQoS() {
		return fmt.Errorf("planner order: basic avg QoS %.6f < tradeoff %.6f", basic.avgQoS(), tradeoff.avgQoS())
	}
	return nil
}

// checkRuntimeParity: the QoSProxy runtime path decides exactly as the
// direct path on the same seed.
func checkRuntimeParity(direct, runtime directTally) error {
	if direct.admitted != runtime.admitted || direct.rankSum != runtime.rankSum {
		return fmt.Errorf("runtime parity: direct admitted %d rank sum %v, runtime admitted %d rank sum %v",
			direct.admitted, direct.rankSum, runtime.admitted, runtime.rankSum)
	}
	return nil
}

// checkPoolDrained: after a run's last release every broker is back to
// its drawn capacity.
func checkPoolDrained(avail, capacity map[string]float64) error {
	if len(avail) != len(capacity) {
		return fmt.Errorf("drain: %d brokers, %d capacities", len(avail), len(capacity))
	}
	return checkAvailEqual("drain", capacity, avail)
}

// planOutcome is one planner's answer on one graph: a plan, or
// infeasible.
type planOutcome struct {
	plan       *core.Plan
	infeasible bool
}

func outcomeOf(p *core.Plan, err error) (planOutcome, error) {
	if errors.Is(err, core.ErrInfeasible) {
		return planOutcome{infeasible: true}, nil
	}
	if err != nil {
		return planOutcome{}, err
	}
	return planOutcome{plan: p}, nil
}

// psiTolerance is how far the fast path's Ψ may drift from the
// exhaustive reference (float summation order only).
const psiTolerance = 1e-9

// checkFastPath: the compiled-template + max-plus Dijkstra plan agrees
// with exhaustive search over the reference QRG on feasibility, rank
// and Ψ, and its summed requirement fits the snapshot it was planned
// against.
func checkFastPath(fast, ref planOutcome, avail qos.ResourceVector) error {
	if fast.infeasible != ref.infeasible {
		return fmt.Errorf("fast path: infeasible=%v, exhaustive infeasible=%v", fast.infeasible, ref.infeasible)
	}
	if fast.infeasible {
		return nil
	}
	if fast.plan.Rank != ref.plan.Rank {
		return fmt.Errorf("fast path: rank %d, exhaustive %d", fast.plan.Rank, ref.plan.Rank)
	}
	if math.Abs(fast.plan.Psi-ref.plan.Psi) > psiTolerance {
		return fmt.Errorf("fast path: psi %.12f, exhaustive %.12f", fast.plan.Psi, ref.plan.Psi)
	}
	for r, need := range fast.plan.Requirement() {
		if need > avail[r]*(1+1e-12) {
			return fmt.Errorf("fast path: plan needs %v of %s, snapshot has %v", need, r, avail[r])
		}
	}
	return nil
}

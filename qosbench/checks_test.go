package main

import (
	"math"
	"testing"

	"qosres/internal/core"
	"qosres/internal/qos"
	"qosres/internal/spec"
	"qosres/internal/svc"
)

// Each check accepts a good observation and rejects a perturbed one.

var ranking = []string{"Qhigh", "Qmid", "Qlow"}

func TestCheckEstablish(t *testing.T) {
	good := establishReply{ID: "s-1", Level: "Qmid", Rank: 2, Psi: 0.4}
	if err := checkEstablish(ranking, good); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	for name, bad := range map[string]func(*establishReply){
		"unranked level": func(r *establishReply) { r.Level = "Qother" },
		"wrong rank":     func(r *establishReply) { r.Rank = 3 },
		"psi above 1":    func(r *establishReply) { r.Psi = 1.5 },
		"negative psi":   func(r *establishReply) { r.Psi = -0.1 },
		"NaN psi":        func(r *establishReply) { r.Psi = math.NaN() },
	} {
		r := good
		bad(&r)
		if checkEstablish(ranking, r) == nil {
			t.Errorf("%s: accepted %+v", name, r)
		}
	}
}

func TestCheckRenegotiate(t *testing.T) {
	good := spec.RenegotiateReply{Session: "s-1", Level: "Qlow", Rank: 1, Outcome: "downgraded"}
	if err := checkRenegotiate(ranking, "s-1", "Qlow", "downgraded", good); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	for name, bad := range map[string]func(*spec.RenegotiateReply){
		"other session":   func(r *spec.RenegotiateReply) { r.Session = "s-2" },
		"level not moved": func(r *spec.RenegotiateReply) { r.Level, r.Rank = "Qmid", 2 },
		"wrong rank":      func(r *spec.RenegotiateReply) { r.Rank = 2 },
		"wrong direction": func(r *spec.RenegotiateReply) { r.Outcome = "upgraded" },
		"unchanged":       func(r *spec.RenegotiateReply) { r.Outcome = "unchanged" },
	} {
		r := good
		bad(&r)
		if checkRenegotiate(ranking, "s-1", "Qlow", "downgraded", r) == nil {
			t.Errorf("%s: accepted %+v", name, r)
		}
	}
}

func TestCheckAvailEqual(t *testing.T) {
	want := map[string]float64{"cpu@H1": 1642.7916177471247, "net:H1->H4": 900}
	ulp := map[string]float64{"cpu@H1": 1642.7916177471245, "net:H1->H4": 900}
	if err := checkAvailEqual("drain", want, ulp); err != nil {
		t.Fatalf("book an ulp from capacity rejected: %v", err)
	}
	for name, got := range map[string]map[string]float64{
		"leaked hold":      {"cpu@H1": 1642.7916177471247, "net:H1->H4": 899.5},
		"missing resource": {"cpu@H1": 1642.7916177471247},
		"over capacity":    {"cpu@H1": 1642.8, "net:H1->H4": 900},
	} {
		if checkAvailEqual("drain", want, got) == nil {
			t.Errorf("%s: accepted %v", name, got)
		}
	}
	if checkPoolDrained(map[string]float64{"cpu@H1": 1642.7916177471247}, want) == nil {
		t.Error("drain with a broker missing accepted")
	}
}

func TestCheckPlannerOrder(t *testing.T) {
	basic := directTally{decided: 100, admitted: 60, rankSum: 180}    // avg 3.0
	tradeoff := directTally{decided: 100, admitted: 70, rankSum: 175} // avg 2.5
	if err := checkPlannerOrder(basic, tradeoff); err != nil {
		t.Fatalf("paper shape rejected: %v", err)
	}
	if checkPlannerOrder(basic, directTally{decided: 100, admitted: 59, rankSum: 140}) == nil {
		t.Error("tradeoff admitting fewer accepted")
	}
	if checkPlannerOrder(basic, directTally{decided: 100, admitted: 70, rankSum: 217}) == nil {
		t.Error("tradeoff with better average QoS accepted")
	}
}

func TestCheckRuntimeParity(t *testing.T) {
	a := directTally{decided: 100, admitted: 60, rankSum: 180}
	if err := checkRuntimeParity(a, a); err != nil {
		t.Fatalf("identical tallies rejected: %v", err)
	}
	if checkRuntimeParity(a, directTally{decided: 100, admitted: 61, rankSum: 180}) == nil {
		t.Error("admission difference accepted")
	}
	if checkRuntimeParity(a, directTally{decided: 100, admitted: 60, rankSum: 181}) == nil {
		t.Error("rank-sum difference accepted")
	}
}

func TestCheckFastPath(t *testing.T) {
	plan := func(rank int, psi, amount float64) planOutcome {
		return planOutcome{plan: &core.Plan{
			Rank: rank, Psi: psi,
			Choices: []core.Choice{{Comp: svc.ComponentID("c"), Req: qos.ResourceVector{"cpu@H1": amount}}},
		}}
	}
	avail := qos.ResourceVector{"cpu@H1": 100}
	if err := checkFastPath(plan(2, 0.3, 50), plan(2, 0.3+1e-12, 50), avail); err != nil {
		t.Fatalf("agreeing plans rejected: %v", err)
	}
	if err := checkFastPath(planOutcome{infeasible: true}, planOutcome{infeasible: true}, avail); err != nil {
		t.Fatalf("both infeasible rejected: %v", err)
	}
	for name, c := range map[string][2]planOutcome{
		"rank differs":       {plan(1, 0.3, 50), plan(2, 0.3, 50)},
		"psi differs":        {plan(2, 0.31, 50), plan(2, 0.3, 50)},
		"plan over snapshot": {plan(2, 0.3, 101), plan(2, 0.3, 101)},
		"fast path gave up":  {{infeasible: true}, plan(2, 0.3, 50)},
		"exhaustive gave up": {plan(2, 0.3, 50), {infeasible: true}},
	} {
		if checkFastPath(c[0], c[1], avail) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

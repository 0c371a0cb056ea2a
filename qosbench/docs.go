package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"qosres/internal/sim"
	"qosres/internal/spec"
)

// establishRequest mirrors qosserved's POST /establish body.
type establishRequest struct {
	MainHost string        `json:"mainHost"`
	Session  *spec.Session `json:"session"`
}

// doc is one session document the served workloads send, encoded once.
type doc struct {
	ranking []string
	body    []byte // encoded establishRequest
}

// docSet is the workload's input: a pool of documents cycled through by
// index, and every resource their bindings touch.
type docSet struct {
	docs      []doc
	resources []string
}

// prepareDocs draws n paper-shaped session documents from seed with the
// figure-9/10 sampler, in the benchmark's own process. A document is
// kept only if an empty deployment admits it above its lowest level, so
// every cycle's one-level downgrade exists; the daemon, built from the
// same seed, only ever receives the encoded documents.
func prepareDocs(seed int64, n int) (*docSet, error) {
	env, err := sim.NewServedEnv(sim.ServedOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	set := &docSet{}
	touched := map[string]bool{}
	for tries := 0; len(set.docs) < n; tries++ {
		if tries > 20*n {
			return nil, fmt.Errorf("docs: only %d of %d documents admit above their lowest level", len(set.docs), n)
		}
		offer, err := env.SampleSession()
		if err != nil {
			return nil, err
		}
		sess, err := env.Establish(context.Background(), offer.MainHost, offer.Doc)
		if err != nil {
			return nil, fmt.Errorf("docs: empty deployment refused a document: %w", err)
		}
		level := sess.CurrentPlan().EndToEnd.Name
		if err := sess.Release(); err != nil {
			return nil, err
		}
		ranking := offer.Doc.Ranking
		if rankOf(ranking, level) <= 1 {
			continue
		}
		body, err := json.Marshal(establishRequest{MainHost: string(offer.MainHost), Session: offer.Doc})
		if err != nil {
			return nil, err
		}
		set.docs = append(set.docs, doc{ranking: ranking, body: body})
		for _, m := range offer.Doc.Binding {
			for _, r := range m {
				touched[r] = true
			}
		}
	}
	for r := range touched {
		set.resources = append(set.resources, r)
	}
	sort.Strings(set.resources)
	return set, nil
}

// lowerLevel is the level one step below current in a best-first
// ranking, "" when current is the lowest.
func lowerLevel(ranking []string, current string) string {
	for i, l := range ranking {
		if l == current && i+1 < len(ranking) {
			return ranking[i+1]
		}
	}
	return ""
}

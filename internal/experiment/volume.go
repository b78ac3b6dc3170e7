package experiment

import (
	"fmt"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/load"
	"mqsched/internal/stack"
	"mqsched/internal/vol"
)

// VolumeComparison (V1) runs the future-work 3-D visualization application
// (internal/vol) under each ranking strategy: emulated analysts render MIP
// slabs of shared volumes at mixed magnifications. It demonstrates that the
// scheduling model is application-independent — the same graph, data store
// and policies run unchanged on a different operator set.
func VolumeComparison(base Config) (Table, error) {
	base = base.withDefaults()
	t := Table{
		Title:  "V1: ranking strategies on the 3-D volume visualization app (future work §6)",
		Header: []string{"policy", "trimmed response (s)", "avg overlap", "makespan (s)"},
		Notes: []string{
			fmt.Sprintf("maximum-intensity projections of slabs of two 8192x8192x64 volumes, %d clients x %d queries",
				base.Clients, base.QueriesPerClient),
		},
	}
	for _, pol := range Policies {
		m, err := runVolume(base, pol)
		if err != nil {
			return t, err
		}
		t.AddRow(policyLabel(pol), m.TrimmedResponse, m.AvgOverlap, m.Makespan)
	}
	return t, nil
}

// runVolume drives the analyst workload (load.VolumeAnalysts): each
// analyst is a closed-loop client that thinks for 500 ms after every
// answer.
func runVolume(cfg Config, policyName string) (Metrics, error) {
	app := vol.New()
	dims := vol.Dims{Width: 8192, Height: 8192, Depth: 64}
	table := dataset.NewTable(app.Add("vol1", dims), app.Add("vol2", dims))
	app.Finish(table)

	cfg.Policy = policyName
	cfg.App = app
	st, err := stack.Assemble(cfg.Config, table, nil)
	if err != nil {
		return Metrics{}, err
	}
	analysts := load.VolumeAnalysts(dims, cfg.Seed, cfg.Clients, cfg.QueriesPerClient)
	clients := make([]client, len(analysts))
	for i, list := range analysts {
		clients[i] = client{queries: metas(list), closed: true, think: 500 * time.Millisecond}
	}
	answers, err := launch(st, clients)
	if err != nil {
		return Metrics{}, fmt.Errorf("experiment v1 %s: %w", policyName, err)
	}
	m := responseMetrics(answers)
	m.Policy = st.Policy.Name()
	m.Server = st.Server.Stats()
	m.Disk = st.Farm.Stats()
	return m, nil
}

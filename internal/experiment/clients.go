package experiment

import (
	"fmt"
	"time"

	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/server"
	"mqsched/internal/stack"
	"mqsched/internal/stats"
	"mqsched/internal/vm"
)

// client is one simulated client. It releases queries[i] at arrival instant
// at[i] after launch (with nil at, as soon as it may). A closed-loop client
// waits for each answer, then thinks, before it releases its next query;
// the paper's interactive clients and the volume analysts are closed-loop.
// Any other client collects its answers after its last submission: the
// Fig. 7 batch is one such client whose arrivals are all at launch, and an
// open-loop stream is one with timed arrivals.
type client struct {
	queries []query.Meta
	at      []time.Duration
	closed  bool
	think   time.Duration
}

// answer is one collected result with its query's scheduled arrival.
type answer struct {
	at  time.Duration
	res *query.Result
}

// launch runs clients against st's server on the simulated runtime until
// the last answer is in, then closes the server and drains the simulation.
// Answers are returned in the order clients collected them.
func launch(st *stack.Stack, clients []client) ([]answer, error) {
	var (
		answers []answer
		errs    []error
		running = len(clients)
	)
	// Simulated processes run one at a time, so the shared slices need no
	// lock.
	for i, c := range clients {
		st.Runtime.Spawn(fmt.Sprintf("client-%d", i), func(ctx rt.Ctx) {
			type pending struct {
				at time.Duration
				tk *server.Ticket
			}
			var open []pending
			for q, m := range c.queries {
				var at time.Duration
				if c.at != nil {
					at = c.at[q]
					if d := at - ctx.Now(); d > 0 {
						ctx.Sleep(d)
					}
				}
				tk, err := st.Server.Submit(m)
				if err != nil {
					errs = append(errs, err)
					break
				}
				if !c.closed {
					open = append(open, pending{at, tk})
					continue
				}
				answers = append(answers, answer{at, tk.Wait(ctx)})
				if c.think > 0 {
					ctx.Sleep(c.think)
				}
			}
			for _, p := range open {
				answers = append(answers, answer{p.at, p.tk.Wait(ctx)})
			}
			if running--; running == 0 {
				st.Server.Close()
			}
		})
	}
	if err := st.Engine.Run(); err != nil {
		return nil, err
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%d submit errors, first: %w", len(errs), errs[0])
	}
	return answers, nil
}

// paperClients are the paper's interactive clients (Figures 4-6), or with
// batch the single client of the Figure 7 movie scenario, which submits
// every query at once, interleaving the clients' lists round-robin so the
// arrival mix matches the interactive scenario's first wave.
func paperClients(queries [][]vm.Meta, batch bool) []client {
	if !batch {
		out := make([]client, len(queries))
		for i, list := range queries {
			out[i] = client{queries: metas(list), closed: true}
		}
		return out
	}
	var all []query.Meta
	for q := 0; ; q++ {
		n := len(all)
		for _, list := range queries {
			if q < len(list) {
				all = append(all, list[q])
			}
		}
		if len(all) == n {
			return []client{{queries: all}}
		}
	}
}

// metas widens a typed query list to query.Meta.
func metas[M query.Meta](list []M) []query.Meta {
	out := make([]query.Meta, len(list))
	for i, m := range list {
		out[i] = m
	}
	return out
}

// responseMetrics fills the response-time, overlap and makespan figures of
// a closed-loop or batch run from its answers, in collection order.
func responseMetrics(answers []answer) Metrics {
	resp := make([]float64, 0, len(answers))
	wait := make([]float64, 0, len(answers))
	exec := make([]float64, 0, len(answers))
	var overlapSum float64
	var makespan time.Duration
	for _, a := range answers {
		resp = append(resp, a.res.ResponseTime().Seconds())
		wait = append(wait, a.res.WaitTime().Seconds())
		exec = append(exec, a.res.ExecTime().Seconds())
		overlapSum += a.res.ReusedFrac
		makespan = max(makespan, a.res.Completed)
	}
	return Metrics{
		TrimmedResponse: stats.TrimmedMean95(resp),
		MeanResponse:    stats.Mean(resp),
		MeanWait:        stats.Mean(wait),
		MeanExec:        stats.Mean(exec),
		AvgOverlap:      overlapSum / float64(max(len(answers), 1)),
		Makespan:        makespan.Seconds(),
		Queries:         len(answers),
	}
}

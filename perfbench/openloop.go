package main

import (
	"fmt"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// stream hands out consecutive queries of one load.Build stream.
type stream struct {
	gen   load.GenConfig
	seed  int64 // of the arrival process
	table *dataset.Table
	items []load.Item
	next  int
}

func newStream(gen load.GenConfig, seed int64, table *dataset.Table, n int) *stream {
	s := &stream{gen: gen, seed: seed, table: table}
	s.build(n)
	return s
}

// build materialises the first n items. load.Build is deterministic in its
// seeds, so a longer stream extends a shorter one.
func (s *stream) build(n int) {
	s.items = load.Build(s.gen, s.table, load.ArrivalConfig{Process: load.Poisson, Rate: 1, Seed: s.seed}, n)
}

// take returns the next n queries and their due offsets: the stream's
// Poisson arrivals rescaled to a process at rate conditioned on exactly n
// arrivals in n/rate seconds, so every phase offers exactly its rate.
func (s *stream) take(n int, rate float64) ([]vm.Meta, []time.Duration) {
	if s.next+n >= len(s.items) {
		s.build(2*len(s.items) + n + 1)
	}
	var base time.Duration
	if s.next > 0 {
		base = s.items[s.next-1].At
	}
	end := s.items[s.next+n].At
	window := float64(n) / rate * float64(time.Second)
	metas := make([]vm.Meta, n)
	due := make([]time.Duration, n)
	for j := range metas {
		it := s.items[s.next+j]
		metas[j] = it.Meta
		due[j] = time.Duration(float64(it.At-base) / float64(end-base) * window)
	}
	s.next += n
	return metas, due
}

// phase is one open-loop stretch of queries.
type phase struct {
	metas []vm.Meta
	due   []time.Duration // offsets from the phase start
	// measureFrom is the first query whose latency counts; earlier ones let
	// the queue settle at a new rate.
	measureFrom int
	// backlogLimit cuts the phase short once more queries than this are
	// outstanding at a dispatch instant (0: no limit).
	backlogLimit int
	sampleEvery  int // copy every n-th output for the oracle (0: none)
}

// phaseResult is what one phase measured; latencies are in ms.
type phaseResult struct {
	lat, wait, exec, lag []float64 // measured queries only
	attempted            int
	failures             []string
	backlog              bool
	samples              []sample
	start, lastDone      time.Duration // runtime clock
	completed            int           // measured queries answered
}

// runPhase offers the phase to sys from two processes: a dispatcher that
// submits each query at its due instant and a collector that waits for the
// answers. Latency runs from the due instant to Result.Completed, both on
// the runtime clock, so a late dispatch or a stalled generator counts
// against the system rather than hiding; lag records how late each
// dispatch was.
func runPhase(sys *mqsched.System, p phase) phaseResult {
	type sent struct {
		t   *mqsched.Ticket
		i   int
		due time.Duration
	}
	ch := make(chan sent, len(p.metas)) // sized to the number of sends
	done := make(chan struct{}, 2)
	var d, c phaseResult // owned by the dispatcher and the collector

	sys.Start("dispatcher", func(ctx mqsched.Ctx) {
		defer func() { done <- struct{}{} }()
		defer close(ch)
		d.start = ctx.Now()
		var pending []*mqsched.Ticket
		for i, m := range p.metas {
			due := d.start + p.due[i]
			if wait := due - ctx.Now(); wait > 0 {
				time.Sleep(wait)
			}
			if p.backlogLimit > 0 {
				pending = outstanding(pending)
				if len(pending) > p.backlogLimit {
					d.backlog = true
					return
				}
			}
			if i >= p.measureFrom {
				d.lag = append(d.lag, ms(ctx.Now()-due))
			}
			d.attempted++
			t, err := sys.Submit(m)
			if err != nil {
				d.failures = append(d.failures, fmt.Sprintf("submit %v: %v", m, err))
				continue
			}
			pending = append(pending, t)
			ch <- sent{t, i, due}
		}
	})
	sys.Start("collector", func(ctx mqsched.Ctx) {
		defer func() { done <- struct{}{} }()
		for s := range ch {
			res := s.t.Wait(ctx)
			m := p.metas[s.i]
			if msg := answerFault(res, m); msg != "" {
				c.failures = append(c.failures, msg)
				continue
			}
			c.lastDone = max(c.lastDone, res.Completed)
			if p.sampleEvery > 0 && s.i%p.sampleEvery == 0 {
				c.samples = append(c.samples, copySample(m, res.Blob.Data))
			}
			if s.i < p.measureFrom {
				continue
			}
			c.completed++
			c.lat = append(c.lat, ms(res.Completed-s.due))
			c.wait = append(c.wait, ms(res.WaitTime()))
			c.exec = append(c.exec, ms(res.ExecTime()))
		}
	})
	<-done
	<-done
	c.lag, c.attempted, c.backlog, c.start = d.lag, d.attempted, d.backlog, d.start
	c.failures = append(d.failures, c.failures...)
	return c
}

// outstanding drops the answered tickets.
func outstanding(ts []*mqsched.Ticket) []*mqsched.Ticket {
	keep := ts[:0]
	for _, t := range ts {
		if !t.Done() {
			keep = append(keep, t)
		}
	}
	return keep
}

// answerFault describes what is wrong with an in-process answer to m, or
// returns "" for a complete answer.
func answerFault(res *mqsched.Result, m vm.Meta) string {
	switch {
	case res == nil:
		return fmt.Sprintf("%v: no result", m)
	case res.Canceled:
		return fmt.Sprintf("%v: canceled", m)
	case res.Blob == nil || res.Blob.Data == nil:
		return fmt.Sprintf("%v: nil blob", m)
	case len(res.Blob.Data) != outputBytes(m):
		return fmt.Sprintf("%v: %d output bytes, want %d", m, len(res.Blob.Data), outputBytes(m))
	}
	return ""
}

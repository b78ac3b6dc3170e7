package main

import (
	"fmt"
	"math/rand"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/vm"
)

const (
	scanZoom = 2
	scanSide = 1024 // base pixels, so outputs are 512²
	// scanPitch spaces tiles so each starts on a page boundary and no two
	// share a page: every page read misses.
	scanPitch = 8 * dataset.VMPageSide
	scanBatch = 96 // tiles per drain
)

// scanCounted are the subsystem counts that must not change when the layers
// are wrapped; the rest depend on thread interleaving.
var scanCounted = map[string]bool{
	"server.completed": true, "server.full_hits": true, "server.projections": true,
	"server.blocks": true, "server.raw_bytes": true, "server.reused_bytes": true,
	"server.computed_bytes": true, "sched.inserted": true, "sched.dequeued": true,
	"sched.edge_pairs": true, "datastore.inserts": true, "datastore.evictions": true,
	"datastore.lookups": true, "datastore.lookup_hits": true, "datastore.reused_bytes": true,
	"pagespace.hits": true, "pagespace.misses": true, "pagespace.coalesced": true,
	"pagespace.evictions": true, "pagespace.bytes_read": true,
	"disk.reads": true, "disk.bytes_read": true,
}

// scanTiles lists every page-disjoint tile of the slides, averaged at zoom 2.
func scanTiles() []vm.Meta {
	var tiles []vm.Meta
	for _, s := range slides() {
		for y := int64(0); y+scanSide <= s.Height; y += scanPitch {
			for x := int64(0); x+scanSide <= s.Width; x += scanPitch {
				tiles = append(tiles, vm.NewMeta(s.Name, geom.R(x, y, x+scanSide, y+scanSide), scanZoom, vm.Average))
			}
		}
	}
	return tiles
}

// runScan drains batches of disjoint tiles, each submitted all at once to a
// freshly assembled stack (the paper's batch mode), until the measured time
// is spent.
func runScan(seed int64, seconds float64, sm *seams) (*outcome, error) {
	tiles := scanTiles()
	rng := rand.New(rand.NewSource(seed))
	o := &outcome{}
	if sm != nil {
		sm.reset()
	}
	var proc procSample
	total := counts{}
	var lat []float64
	var drain time.Duration
	start := time.Now()
	for round := 0; round < setupReps || time.Since(start).Seconds() < seconds; round++ {
		var batch []vm.Meta
		for _, i := range rng.Perm(len(tiles))[:scanBatch] {
			batch = append(batch, tiles[i])
		}
		t := time.Now()
		sys, err := newSystem(sm)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t).Seconds())

		done := make(chan struct{})
		var t0, t1 time.Duration
		p0 := readProc()
		sys.Start("scan", func(ctx mqsched.Ctx) {
			defer close(done)
			t0 = ctx.Now()
			tickets := make([]*mqsched.Ticket, len(batch))
			for i, m := range batch {
				o.attempted++
				var err error
				if tickets[i], err = sys.Submit(m); err != nil {
					o.failures = append(o.failures, fmt.Sprintf("submit %v: %v", m, err))
				}
			}
			for i, tk := range tickets {
				if tk == nil {
					continue
				}
				res := tk.Wait(ctx)
				tickets[i] = nil // let the output go once checked
				if msg := answerFault(res, batch[i]); msg != "" {
					o.failures = append(o.failures, msg)
					continue
				}
				t1 = max(t1, res.Completed)
				o.span.wait = append(o.span.wait, ms(res.WaitTime()))
				o.span.exec = append(o.span.exec, ms(res.ExecTime()))
				lat = append(lat, ms(res.Completed-t0))
				if i == 0 && round%4 == 0 {
					o.samples = append(o.samples, copySample(batch[i], res.Blob.Data))
				}
			}
		})
		<-done
		proc = proc.plus(readProc().minus(p0))
		c := countsOf(sys.Stats())
		if err := sys.Run(); err != nil {
			return nil, err
		}
		// Start every batch from a clean heap, so the peak resident set
		// does not depend on when the collector last ran.
		releaseMemory()
		o.rounds = append(o.rounds, c)
		total = total.plus(c)
		drain += t1 - t0
	}
	o.span.wall, o.span.counts, o.span.sm, o.span.proc = drain, total, sm, proc
	o.throughput = float64(total["server.completed"]) / drain.Seconds()
	o.cpuMS = ratio(ms(o.span.proc.cpu), float64(total["server.completed"]))
	// Every query is issued as soon as the batch starts, so the drain rate
	// is the most this stack sustains on this batch: the capacity.
	o.capacity = o.throughput
	var err error
	if o.latP50, err = percentile(lat, 0.5); err != nil {
		return nil, err
	}
	if o.latP95, err = percentile(lat, 0.95); err != nil {
		return nil, err
	}
	return o, nil
}

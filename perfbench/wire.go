package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mqsched"
	"mqsched/internal/cluster"
	"mqsched/internal/load"
	"mqsched/internal/netproto"
	"mqsched/internal/vm"
)

const (
	// hotSet is the number of browse viewports wire replays. With 48, about
	// 5% of replays recomputed, so the p95 fell between the fast and the
	// slow answers and swung between runs; 96 keeps it among the slow ones.
	hotSet       = 96
	wireConns    = 2
	wireBackends = 2
	wireEpochs   = 5
)

// hotViewports are the first hotSet distinct viewports of the browse stream.
func hotViewports() []vm.Meta {
	items := load.Build(browseGen(), mqsched.NewSlideTable(slides()...),
		load.ArrivalConfig{Process: load.Poisson, Rate: 1, Seed: worldSeed}, 8*hotSet)
	seen := map[vm.Meta]bool{}
	var hot []vm.Meta
	for _, it := range items {
		if !seen[it.Meta] && len(hot) < hotSet {
			seen[it.Meta] = true
			hot = append(hot, it.Meta)
		}
	}
	return hot
}

func request(m vm.Meta) *netproto.Request {
	return &netproto.Request{Slide: m.DS, X0: m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1, Zoom: m.Zoom, Op: m.Op.String()}
}

// responseFault describes what is wrong with a wire answer to m, or returns
// "" for a complete answer.
func responseFault(resp *netproto.Response, err error, m vm.Meta) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%v: %v", m, err)
	case resp.Err != "":
		return fmt.Sprintf("%v: refused: %s", m, resp.Err)
	case len(resp.Pixels) != outputBytes(m):
		return fmt.Sprintf("%v: %d pixel bytes, want %d", m, len(resp.Pixels), outputBytes(m))
	}
	return ""
}

// bootWire starts a router and two backends on loopback and sends every hot
// viewport through it once, so the backends' data stores hold them.
func bootWire(hot []vm.Meta, sm *seams) (*cluster.Harness, error) {
	cfg := systemConfig()
	if sm != nil {
		cfg.App = sm.app(vm.New(mqsched.NewSlideTable(slides()...)))
	}
	h, err := cluster.StartHarness(cluster.HarnessConfig{Backends: wireBackends, Slides: slides(), System: cfg})
	if err != nil {
		return nil, err
	}
	c := netproto.NewClient(h.Addr, 0)
	defer c.Close()
	for _, m := range hot {
		resp, err := c.Do(request(m))
		if msg := responseFault(resp, err, m); msg != "" {
			h.Close()
			return nil, fmt.Errorf("warming the hot set: %s", msg)
		}
	}
	return h, nil
}

// connResult is what one closed-loop connection measured; times in ms.
type connResult struct {
	lat, wait, exec, net []float64
	attempted            int
	failures             []string
	samples              []sample
	bytes                float64
}

// runWire replays the hot set closed loop over wireConns connections to an
// in-process cluster, with full pixels returned. The run is split into
// wireEpochs epochs, each on a freshly booted and warmed cluster: the
// cluster's state drifts as the replay goes on (see README.md), so one long
// loop would measure how far it drifted and several short ones average over
// replay orders. The seed draws the replay orders.
func runWire(seed int64, seconds float64, sm *seams) (*outcome, error) {
	hot := hotViewports()
	o := &outcome{span: layerSpan{counts: counts{}, sm: sm}}
	if sm != nil {
		sm.reset()
	}
	var lat []float64
	for e := 0; e < wireEpochs; e++ {
		var esm *seams
		if sm != nil {
			esm = &seams{}
		}
		t := time.Now()
		h, err := bootWire(hot, esm)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t).Seconds())
		if esm != nil {
			esm.reset() // the warm-up is set-up, not measured
		}
		per, ls := wireEpoch(h, hot, seed*wireEpochs+int64(e), seconds/wireEpochs, esm)
		h.Close()
		releaseMemory()
		if sm != nil {
			sm.add(esm)
		}
		o.span.wall += ls.wall
		o.span.counts = o.span.counts.plus(ls.counts)
		o.span.proc = o.span.proc.plus(ls.proc)
		if o.span.routed == nil {
			o.span.routed = make([]int64, len(ls.routed))
		}
		for i, r := range ls.routed {
			o.span.routed[i] += r
		}
		o.span.spilled += ls.spilled
		for _, r := range per {
			lat = append(lat, r.lat...)
			o.span.wait = append(o.span.wait, r.wait...)
			o.span.exec = append(o.span.exec, r.exec...)
			o.span.net = append(o.span.net, r.net...)
			o.span.respBytes += r.bytes
			o.attempted += r.attempted
			o.failures = append(o.failures, r.failures...)
			o.samples = append(o.samples, r.samples...)
		}
	}
	o.throughput = float64(len(lat)) / o.span.wall.Seconds()
	o.cpuMS = ratio(ms(o.span.proc.cpu), float64(o.span.counts["server.completed"]))
	// Every connection sends its next query as soon as the last returns, so
	// the closed loop runs the stack flat out at this concurrency: its
	// completion rate is the capacity.
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

// wireEpoch runs the closed loop against h for the given seconds.
func wireEpoch(h *cluster.Harness, hot []vm.Meta, seed int64, seconds float64, sm *seams) ([]connResult, layerSpan) {
	stats := func() counts {
		c := counts{}
		for _, s := range h.Systems {
			c = c.plus(countsOf(s.Stats()))
		}
		return c
	}
	r0 := h.Router.Stats()
	span := startSpan(stats, sm)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	per := make([]connResult, wireConns)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(r *connResult, rng *rand.Rand) {
			defer wg.Done()
			c := netproto.NewClient(h.Addr, 0)
			defer c.Close()
			// Each connection replays the hot set in rounds, every viewport
			// once per round in a fresh random order, so that every run
			// asks for each viewport equally often.
			var order []int
			for n := 0; time.Now().Before(deadline); n++ {
				if len(order) == 0 {
					order = rng.Perm(len(hot))
				}
				m := hot[order[0]]
				order = order[1:]
				t := time.Now()
				resp, err := c.Do(request(m))
				rtt := ms(time.Since(t))
				r.attempted++
				if msg := responseFault(resp, err, m); msg != "" {
					r.failures = append(r.failures, msg)
					continue
				}
				r.lat = append(r.lat, rtt)
				r.wait = append(r.wait, resp.WaitMS)
				r.exec = append(r.exec, resp.ExecMS)
				r.net = append(r.net, rtt-resp.ResponseMS)
				r.bytes += float64(len(resp.Pixels))
				if n%128 == 0 {
					r.samples = append(r.samples, copySample(m, resp.Pixels))
				}
			}
		}(&per[i], rand.New(rand.NewSource(seed*wireConns+int64(i))))
	}
	wg.Wait()
	ls := span.end(stats)
	r1 := h.Router.Stats()
	for i, b := range r1.Backends {
		ls.routed = append(ls.routed, b.Routed-r0.Backends[i].Routed)
	}
	ls.spilled = r1.Spilled - r0.Spilled
	return per, ls
}

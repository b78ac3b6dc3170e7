package load

import (
	"fmt"
	"math"
	"math/rand"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/vm"
)

// The paper's §5 workload: a driver program emulates multiple simultaneous
// clients, which "allowed us to create different scenarios and vary the
// workload behavior (both the number of clients and the number of queries)
// in a controlled way". By default 16 clients issue 16 queries each,
// producing 1024×1024 RGB images (3 MB) at magnifications {1,2,4,8}
// (weighted 1:3:4:2) against three 30000×30000 slides, with 8/6/2 clients
// per slide. Clients browse around two hotspots per slide, which is what
// creates the inter-query overlap the scheduler exploits. Each client's
// queries form a closed loop: the next is sent when the previous answer
// arrives.

// The paper's fixed workload shape.
var (
	clientsPerDataset = []int{8, 6, 2}
	paperZooms        = []int64{1, 2, 4, 8}
	paperZoomWeights  = []int{1, 3, 4, 2}
)

const (
	paperHotspots = 2   // browsing foci per slide
	paperJitter   = 900 // σ in pixels of a query's offset from its hotspot

	// PaperSlideSide is the edge in pixels of the paper's slides.
	PaperSlideSide = 30000
)

// WorkloadConfig parameterizes the paper's client workload (Generate).
type WorkloadConfig struct {
	// Clients is the number of emulated clients (default 16).
	Clients int
	// QueriesPerClient is the queries each client issues (default 16).
	QueriesPerClient int
	// OutputSide is the output image edge in pixels (default 1024 → 3 MB
	// RGB outputs).
	OutputSide int64
	// Op is the VM processing function (Subsample or Average).
	Op vm.Op
	// Seed makes generation deterministic.
	Seed int64
	// Mode selects the browsing pattern (default Browse).
	Mode Mode
}

// Mode is a client browsing pattern. The three modes create different
// overlap structures, exercising the scheduler in different ways.
type Mode int

const (
	// Browse: independent queries jittered around shared hotspots (the
	// paper's §5 workload) — symmetric, unordered overlap.
	Browse Mode = iota
	// Pan: each client sweeps its window across the slide in consecutive
	// steps at a fixed zoom — chained overlap between consecutive queries
	// (the movie scenario's access pattern).
	Pan
	// ZoomStack: each client repeatedly looks at the same center while
	// stepping the magnification down and up — cross-zoom overlap where
	// finer results can answer coarser queries.
	ZoomStack
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Browse:
		return "browse"
	case Pan:
		return "pan"
	case ZoomStack:
		return "zoomstack"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.QueriesPerClient == 0 {
		c.QueriesPerClient = 16
	}
	if c.OutputSide == 0 {
		c.OutputSide = 1024
	}
	return c
}

// PaperSlides builds the paper's three side×side 3-byte-pixel slides
// (slide1..slide3) in 64 KB pages. At PaperSlideSide that is ~2.7 GB each,
// never materialized on the synthetic runtime.
func PaperSlides(side int64) *dataset.Table {
	return dataset.NewTable(
		vm.NewSlide("slide1", side, side),
		vm.NewSlide("slide2", side, side),
		vm.NewSlide("slide3", side, side),
	)
}

// Generate builds the per-client query lists for the datasets in table
// (registration order). Generation is deterministic in cfg.Seed.
func Generate(cfg WorkloadConfig, table *dataset.Table) [][]vm.Meta {
	cfg = cfg.withDefaults()
	names := table.Names()
	if len(names) == 0 {
		panic("load: no datasets")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	hotspots := map[string][][2]int64{}
	for _, name := range names {
		hotspots[name] = pickHotspots(rng, table.Get(name), paperHotspots)
	}

	// Assign clients to datasets.
	dsOf := make([]string, cfg.Clients)
	idx, used := 0, 0
	for i := 0; i < cfg.Clients; i++ {
		for idx < len(clientsPerDataset)-1 && used >= clientsPerDataset[idx] {
			idx++
			used = 0
		}
		dsOf[i] = names[idx%len(names)]
		used++
	}

	out := make([][]vm.Meta, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		c := &paperClient{
			cfg:   cfg,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1)),
			l:     table.Get(dsOf[i]),
			spots: hotspots[dsOf[i]],
		}
		switch cfg.Mode {
		case Pan:
			out[i] = c.pan()
		case ZoomStack:
			out[i] = c.zoomStack()
		default:
			out[i] = c.browse()
		}
	}
	return out
}

// paperClient generates one client's query list.
type paperClient struct {
	cfg   WorkloadConfig
	rng   *rand.Rand
	l     *dataset.Layout
	spots [][2]int64
}

// browse is the paper's §5 pattern: jittered windows around hotspots.
func (c *paperClient) browse() []vm.Meta {
	var out []vm.Meta
	for q := 0; q < c.cfg.QueriesPerClient; q++ {
		zoom := c.zoom()
		spot := c.spots[c.rng.Intn(len(c.spots))]
		cx := spot[0] + int64(c.rng.NormFloat64()*paperJitter)
		cy := spot[1] + int64(c.rng.NormFloat64()*paperJitter)
		out = append(out, c.query(cx, cy, zoom))
	}
	return out
}

// pan sweeps the window in a straight line from a hotspot, one half-window
// step per query.
func (c *paperClient) pan() []vm.Meta {
	zoom := c.zoom()
	spot := c.spots[c.rng.Intn(len(c.spots))]
	cx, cy := spot[0], spot[1]
	side := c.cfg.OutputSide * zoom
	theta := c.rng.Float64() * 6.28318
	dx := int64(float64(side/2) * math.Cos(theta))
	dy := int64(float64(side/2) * math.Sin(theta))
	var out []vm.Meta
	for q := 0; q < c.cfg.QueriesPerClient; q++ {
		out = append(out, c.query(cx, cy, zoom))
		cx += dx
		cy += dy
	}
	return out
}

// zoomStack alternates magnification at a fixed center, coarse to fine and
// back — each fine result can answer the following coarser queries.
func (c *paperClient) zoomStack() []vm.Meta {
	spot := c.spots[c.rng.Intn(len(c.spots))]
	var out []vm.Meta
	n := len(paperZooms)
	for q := 0; q < c.cfg.QueriesPerClient; q++ {
		// Triangle wave over the zoom ladder: 0,1,...,n-1,n-2,...,0,1,...
		idx := q % (2*n - 2)
		if idx >= n {
			idx = 2*n - 2 - idx
		}
		out = append(out, c.query(spot[0], spot[1], paperZooms[idx]))
	}
	return out
}

// zoom draws a magnification with the paper's 1:3:4:2 weights.
func (c *paperClient) zoom() int64 {
	v := c.rng.Intn(10) // the weights' sum
	for i, w := range paperZoomWeights {
		if v < w {
			return paperZooms[i]
		}
		v -= w
	}
	return paperZooms[len(paperZooms)-1]
}

func (c *paperClient) query(cx, cy, zoom int64) vm.Meta {
	w := squareAt(cx, cy, c.cfg.OutputSide*zoom, zoom, c.l.Width, c.l.Height)
	return vm.NewMeta(c.l.Name, w, zoom, c.cfg.Op)
}

// pickHotspots draws n browsing foci away from the dataset's borders.
func pickHotspots(rng *rand.Rand, l *dataset.Layout, n int) [][2]int64 {
	spots := make([][2]int64, 0, n)
	for h := 0; h < n; h++ {
		x := l.Width/4 + rng.Int63n(max(l.Width/2, 1))
		y := l.Height/4 + rng.Int63n(max(l.Height/2, 1))
		spots = append(spots, [2]int64{x, y})
	}
	return spots
}

// squareAt is the zoom-aligned square query window of edge side (shrunk to
// fit a width×height dataset) centred as near (cx, cy) as the dataset
// allows. Every generator builds its windows with it.
func squareAt(cx, cy, side, zoom, width, height int64) geom.Rect {
	side = min(side, width, height)
	// Floor-align the corner so the window is exactly side long and
	// zoom-aligned.
	x0 := geom.FloorDiv(clamp(cx-side/2, 0, width-side), zoom) * zoom
	y0 := geom.FloorDiv(clamp(cy-side/2, 0, height-side), zoom) * zoom
	side = geom.FloorDiv(side, zoom) * zoom
	return geom.R(x0, y0, x0+side, y0+side)
}

// clamp limits v to [lo, hi]; when hi < lo it returns lo.
func clamp(v, lo, hi int64) int64 { return max(lo, min(v, hi)) }

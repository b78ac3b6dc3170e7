// Command mqdriver emulates multiple simultaneous clients against a running
// mqserver over TCP, like the driver program of the paper's evaluation
// (which ran on a cluster of PCs connected to the SMP). Each client is
// closed-loop: it sends its next query when the previous answer arrives.
// The queries are the paper's hotspot browsing workload (load.Generate)
// over one -side² slide, and it reports client-observed latency
// statistics.
//
// Usage:
//
//	mqdriver -addr localhost:9123 -clients 8 -queries 16 -slide slide1 -op subsample
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/load"
	"mqsched/internal/netproto"
	"mqsched/internal/stats"
	"mqsched/internal/vm"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:9123", "server address")
		clients = flag.Int("clients", 8, "number of concurrent emulated clients")
		queries = flag.Int("queries", 16, "queries per client")
		slide   = flag.String("slide", "slide1", "slide to browse")
		side    = flag.Int64("side", 16384, "slide edge in pixels (must match the server)")
		outSide = flag.Int64("out", 512, "output image edge in pixels")
		op      = flag.String("op", "subsample", "processing function")
		seed    = flag.Int64("seed", 1, "workload seed")
		think   = flag.Duration("think", 0, "client think time between queries")
	)
	flag.Parse()
	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments %q", flag.Args())
	case *clients < 1:
		usageError("-clients %d: need at least one client", *clients)
	case *queries < 1:
		usageError("-queries %d: need at least one query per client", *queries)
	case *side < 1:
		usageError("-side %d: slide edge must be positive", *side)
	case *outSide < 1:
		usageError("-out %d: output edge must be positive", *outSide)
	case *outSide > *side:
		usageError("-out %d exceeds -side %d: output cannot outsize the slide", *outSide, *side)
	case *think < 0:
		usageError("-think %v: think time cannot be negative", *think)
	}
	vmOp, err := vm.ParseOp(*op)
	if err != nil {
		usageError("-op: %v", err)
	}
	workload := load.Generate(load.WorkloadConfig{
		Clients:          *clients,
		QueriesPerClient: *queries,
		OutputSide:       *outSide,
		Op:               vmOp,
		Seed:             *seed,
	}, dataset.NewTable(vm.NewSlide(*slide, *side, *side)))

	var (
		mu        sync.Mutex
		latencies []float64
		reuseSum  float64
		count     int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", *addr)
			if err != nil {
				log.Printf("client %d: %v", c, err)
				return
			}
			defer nc.Close()
			conn := netproto.NewConn(nc)
			for _, m := range workload[c] {
				req := &netproto.Request{
					Slide: m.DS,
					X0:    m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1,
					Zoom: m.Zoom, Op: m.Op.String(), OmitPixels: true,
				}
				t0 := time.Now()
				if err := conn.WriteRequest(req); err != nil {
					log.Printf("client %d: %v", c, err)
					return
				}
				resp, err := conn.ReadResponse()
				if err != nil {
					log.Printf("client %d: %v", c, err)
					return
				}
				if resp.Err != "" {
					log.Printf("client %d: server: %s", c, resp.Err)
					return
				}
				mu.Lock()
				latencies = append(latencies, time.Since(t0).Seconds()*1000)
				reuseSum += resp.ReusedFrac
				count++
				mu.Unlock()
				if *think > 0 {
					time.Sleep(*think)
				}
			}
		}(c)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if count == 0 {
		log.Fatal("no queries completed")
	}
	s := stats.Summarize(latencies)
	fmt.Printf("%d queries from %d clients in %s\n", count, *clients, time.Since(start).Round(time.Millisecond))
	fmt.Printf("latency ms: mean=%.1f trimmed95=%.1f p50=%.1f p95=%.1f max=%.1f\n",
		s.Mean, s.TrimmedMean, s.P50, s.P95, s.Max)
	fmt.Printf("mean reuse: %.0f%%\n", reuseSum/float64(count)*100)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mqdriver: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

package main

import (
	"bytes"
	"fmt"

	"mqsched/internal/vm"
)

// sample is an output copied during a run, checked after the timed window.
type sample struct {
	meta vm.Meta
	data []byte
}

func copySample(m vm.Meta, data []byte) sample {
	return sample{meta: m, data: append([]byte(nil), data...)}
}

// outputBytes is the size of a complete answer to m.
func outputBytes(m vm.Meta) int { return int(m.OutRect().Area() * vm.BytesPerPixel) }

// checkOracle compares each sample byte for byte with vm.RenderOracle. Both
// processing functions are exact here: subsample outputs are exact under any
// reuse, and the average workload reuses nothing. It returns one message
// per mismatching sample.
func checkOracle(samples []sample) []string {
	want := map[vm.Meta][]byte{}
	var bad []string
	for _, s := range samples {
		w, ok := want[s.meta]
		if !ok {
			w = vm.RenderOracle(s.meta)
			want[s.meta] = w
		}
		if !bytes.Equal(s.data, w) {
			bad = append(bad, fmt.Sprintf("output of %v differs from the oracle", s.meta))
		}
	}
	return bad
}

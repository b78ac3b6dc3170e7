package load

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mqsched/internal/vm"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	table := smallTable()
	cfg := WorkloadConfig{Clients: 10, QueriesPerClient: 4, OutputSide: 128, Seed: 11, Op: vm.Average}
	orig := Generate(cfg, table)

	var buf bytes.Buffer
	if err := SaveWorkload(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWorkload(&buf, table)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(orig) != fmt.Sprint(loaded) {
		t.Fatal("round trip changed the workload")
	}
}

func TestLoadWorkloadValidation(t *testing.T) {
	table := smallTable()
	cases := []struct {
		name string
		json string
	}{
		{"garbage", "{nope"},
		{"bad version", `{"version":2,"clients":[]}`},
		{"unknown op", `{"version":1,"clients":[[{"dataset":"s1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"blur"}]]}`},
		{"unknown dataset", `{"version":1,"clients":[[{"dataset":"zz","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"subsample"}]]}`},
		{"out of bounds", `{"version":1,"clients":[[{"dataset":"s1","x0":0,"y0":0,"x1":999999,"y1":8,"zoom":1,"op":"subsample"}]]}`},
		{"misaligned", `{"version":1,"clients":[[{"dataset":"s1","x0":1,"y0":0,"x1":9,"y1":8,"zoom":4,"op":"subsample"}]]}`},
		{"zero zoom", `{"version":1,"clients":[[{"dataset":"s1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":0,"op":"subsample"}]]}`},
	}
	for _, c := range cases {
		if _, err := LoadWorkload(strings.NewReader(c.json), table); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// A valid single-query workload loads.
	ok := `{"version":1,"clients":[[{"dataset":"s1","x0":0,"y0":0,"x1":64,"y1":64,"zoom":4,"op":"subsample"}]]}`
	qs, err := LoadWorkload(strings.NewReader(ok), table)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || len(qs[0]) != 1 || qs[0][0].Zoom != 4 {
		t.Fatalf("loaded = %v", qs)
	}
}

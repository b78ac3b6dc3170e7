package main

import (
	"testing"

	"mqsched/internal/geom"
	"mqsched/internal/vm"
)

func TestOracleCatchesCorruptedOutput(t *testing.T) {
	m := vm.NewMeta("slide1", geom.R(0, 0, 512, 512), 2, vm.Average)
	good := copySample(m, vm.RenderOracle(m))
	if bad := checkOracle([]sample{good}); len(bad) != 0 {
		t.Fatalf("exact output rejected: %v", bad)
	}
	corrupt := copySample(m, good.data)
	corrupt.data[len(corrupt.data)/2] ^= 1
	if bad := checkOracle([]sample{good, corrupt}); len(bad) != 1 {
		t.Errorf("one corrupted output of two: %d mismatches reported, want 1", len(bad))
	}
	short := copySample(m, good.data[:len(good.data)-3])
	if bad := checkOracle([]sample{short}); len(bad) != 1 {
		t.Errorf("truncated output: %d mismatches reported, want 1", len(bad))
	}
}

package experiment

import (
	"testing"

	"mqsched/internal/disk"
)

// The volume experiment runs on the same assembled stack as the VM ones, so
// the stack knobs reach it: the elevator scheduler merges its reads.
func TestVolumeHonoursStackConfig(t *testing.T) {
	cfg := Config{Clients: 4, QueriesPerClient: 2, Seed: 9}
	cfg.IOSched = disk.SchedElevator
	m, err := runVolume(cfg.withDefaults(), "fifo")
	if err != nil {
		t.Fatal(err)
	}
	if m.Disk.Batches == 0 {
		t.Fatalf("elevator farm dispatched no batches: %+v", m.Disk)
	}
}

package stack

import (
	"flag"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/sched"
	"mqsched/internal/vm"
)

func table() *dataset.Table { return dataset.NewTable(vm.NewSlide("s1", 1024, 1024)) }

// Every advertised strategy name assembles, and cf takes CFAlpha.
func TestAssembleResolvesEveryPolicyName(t *testing.T) {
	for _, name := range PolicyNames() {
		st, err := Assemble(Config{Policy: name}, table(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Policy == nil || st.Server == nil || st.Engine == nil {
			t.Fatalf("%s: incomplete stack %+v", name, st)
		}
	}
	st, err := Assemble(Config{Policy: "cf", CFAlpha: 0.5}, table(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cf, ok := st.Policy.(sched.CF); !ok || cf.Alpha != 0.5 {
		t.Fatalf("cf policy = %#v, want CF{Alpha: 0.5}", st.Policy)
	}
	if _, err := Assemble(Config{Policy: "zzz"}, table(), nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
	// ra reads simulated CPU utilization, which the real runtime lacks.
	if _, err := Assemble(Config{Mode: Real, Policy: "ra"}, table(), vm.GeneratePage); err == nil {
		t.Fatal("ra accepted on the real runtime")
	}
}

func TestBindFlags(t *testing.T) {
	cfg := Config{Policy: "cnbf", Threads: 4, DSPolicy: "lru"}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	parse := BindFlags(fs, &cfg)
	if got := fs.Lookup("policy").DefValue; got != "cnbf" {
		t.Errorf("-policy default %q, want the caller's cnbf", got)
	}
	if got := fs.Lookup("io-sched").DefValue; got != "fifo" {
		t.Errorf("-io-sched default %q, want fifo", got)
	}
	if err := fs.Parse([]string{"-threads=2", "-io-sched=elevator", "-io-batch=8", "-ds-policy=cost"}); err != nil {
		t.Fatal(err)
	}
	if err := parse(); err != nil {
		t.Fatal(err)
	}
	if cfg.Threads != 2 || cfg.IOSched != disk.SchedElevator || cfg.IOBatchPages != 8 || cfg.DSPolicy != "cost" || cfg.Policy != "cnbf" {
		t.Fatalf("parsed config %+v", cfg)
	}

	for _, args := range [][]string{{"-io-sched=scan"}, {"-ds-policy=mru"}} {
		cfg := Config{}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		parse := BindFlags(fs, &cfg)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := parse(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

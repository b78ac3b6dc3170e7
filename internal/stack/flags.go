package stack

import (
	"flag"
	"strings"

	"mqsched/internal/datastore"
	"mqsched/internal/disk"
)

// BindFlags registers the stack flags the commands share on fs: -policy,
// -threads, -batch-starvation, -batch-group, -ds-policy, -io-sched,
// -io-batch and -io-maxdelay. Each flag defaults to the matching field of
// *cfg and parses into it. Call the returned function after fs.Parse: it
// resolves -io-sched into cfg.IOSched and rejects an unknown -ds-policy.
func BindFlags(fs *flag.FlagSet, cfg *Config) func() error {
	fs.StringVar(&cfg.Policy, "policy", cfg.Policy, "ranking strategy: "+strings.Join(PolicyNames(), ", "))
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "query threads")
	fs.Float64Var(&cfg.BatchStarvation, "batch-starvation", cfg.BatchStarvation, "batch policy aging blend toward arrival order (0 = default, negative disables aging)")
	fs.IntVar(&cfg.BatchMaxGroup, "batch-group", cfg.BatchMaxGroup, "max queries claimed per batch dispatch (0 = default)")
	fs.StringVar(&cfg.DSPolicy, "ds-policy", cfg.DSPolicy, "data store cache policy: lru (the paper's cache-everything store) or cost (benefit-aware eviction + admission control + proactive materialization)")
	ioSched := fs.String("io-sched", cfg.IOSched.String(), "per-spindle service discipline: fifo (the paper's model) or elevator (reorder + merge)")
	fs.IntVar(&cfg.IOBatchPages, "io-batch", cfg.IOBatchPages, "max distinct pages per merged elevator transfer (0 = default 16)")
	fs.IntVar(&cfg.IOMaxDelay, "io-maxdelay", cfg.IOMaxDelay, "elevator starvation bound in bypassing dispatches (0 = default 8, negative = unbounded)")
	return func() error {
		var err error
		if cfg.IOSched, err = disk.ParseSched(*ioSched); err != nil {
			return err
		}
		_, err = datastore.ParsePolicy(cfg.DSPolicy)
		return err
	}
}

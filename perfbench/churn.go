package main

import (
	"fmt"
	"math/rand"
	"time"

	"stark"
)

// churnConfig sizes the churn workload, the paper's IT-forensics scenario
// (Sec. I): per-service log datasets are loaded into one co-located
// namespace, queried together and evicted, under a per-executor cache
// smaller than the live set, with the DAG-aware eviction policy,
// checkpointing and the driver journal on.
type churnConfig struct {
	Live   int   // datasets cached at once
	Cycles int   // timed load/query/evict cycles per pass (the ops)
	Lines  int   // log lines per dataset
	Memory int64 // per-executor cache, simulated bytes
}

const (
	churnQueries = 3    // cogroup queries per cycle
	churnHosts   = 8192 // host key space shared by all services
	churnParts   = 16   // namespace partitions
)

func defaultChurn() churnConfig {
	return churnConfig{Live: 8, Cycles: 100, Lines: 6000, Memory: 256 << 20}
}

var churnServices = []string{"api", "db", "cache", "auth", "worker"}

type churn struct {
	base
	cfg      churnConfig
	datasets [][]stark.Record // Live initial datasets, then one per cycle
	live     []*stark.RDD
	liveIdx  []int // dataset index of each live RDD
	part     stark.Partitioner
}

func (c churnConfig) workload() workload {
	return workload{name: "churn", ops: c.Cycles, setup: c.setup}
}

func (c churnConfig) setup(seed int64, par int, tr *tracer) (instance, error) {
	ch := &churn{cfg: c, part: stark.NewHashPartitioner(churnParts)}
	sp := tr.begin("workload.generate")
	gen := rand.New(rand.NewSource(seed))
	ch.datasets = make([][]stark.Record, c.Live+c.Cycles)
	for i := range ch.datasets {
		ch.datasets[i] = syslogDataset(gen, churnServices[i%len(churnServices)], i, c.Lines, churnHosts)
		ch.records += c.Lines
	}
	tr.end(sp)

	ch.ctx = stark.NewContext(
		stark.WithExecutors(8), stark.WithSlots(4),
		stark.WithSizeScale(420),
		stark.WithMemory(c.Memory),
		stark.WithCoLocality(), stark.WithMCF(),
		stark.WithCachePolicy("dag"),
		stark.WithCheckpointing(400*time.Millisecond, 1.5),
		stark.WithDriverRecovery(),
		stark.WithLocalityWait(250*time.Millisecond),
		stark.WithSeed(1),
		stark.WithParallelism(par),
	)
	ch.ns = "logs"
	if err := ch.ctx.RegisterNamespace(ch.ns, ch.part, 1); err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	for i := 0; i < c.Live; i++ {
		if err := ch.load(i, tr); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// syslogDataset generates one service's log lines for one window: key =
// host, value = a log line. Hosts are shared across services, so
// cross-service cogroups correlate.
func syslogDataset(rng *rand.Rand, service string, window, lines, hosts int) []stark.Record {
	out := make([]stark.Record, lines)
	for i := range out {
		host := fmt.Sprintf("host-%05d", rng.Intn(hosts))
		sev := "INFO"
		if rng.Intn(50) == 0 {
			sev = "ERROR"
		}
		out[i] = stark.Pair(host, fmt.Sprintf("%s w%03d %s %s req=%06d latency=%dms",
			sev, window, service, host, rng.Intn(1_000_000), rng.Intn(200)))
	}
	return out
}

func (ch *churn) load(i int, tr *tracer) error {
	r := ch.ctx.FromPartitions(fmt.Sprintf("log-%d", i), chunk(ch.datasets[i], 8), true).
		LocalityPartitionBy(ch.part, ch.ns).Cache()
	sp := tr.begin("engine.materialize")
	_, err := r.Materialize()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("churn: load %d: %w", i, err)
	}
	ch.live = append(ch.live, r)
	ch.liveIdx = append(ch.liveIdx, i)
	return nil
}

func (ch *churn) op(i int, tr *tracer) ([]time.Duration, error) {
	ch.live[0].Unpersist()
	ch.live, ch.liveIdx = ch.live[1:], ch.liveIdx[1:]
	if err := ch.load(ch.cfg.Live+i, tr); err != nil {
		return nil, err
	}
	var delays []time.Duration
	for q := 0; q < churnQueries; q++ {
		// A fixed cycle of window sizes and offsets rather than random
		// draws: every seed runs the same query mix over different data.
		j := i*churnQueries + q
		k := 2 + j%3
		lo := (j * 5) % (len(ch.live) - k + 1)
		first := ch.liveIdx[lo]
		sp := tr.begin("engine.count")
		n, jm, err := ch.ctx.CoGroup(ch.part, ch.live[lo:lo+k]...).Count()
		tr.end(sp)
		if err != nil {
			return delays, fmt.Errorf("churn: op %d query %d: %w", i, q, err)
		}
		delays = append(delays, jm.Makespan())
		ch.expect(i, fmt.Sprintf("query %d distinct hosts", q), n, func() int64 {
			return distinctKeys(ch.datasets[first:first+k], nil)
		})
	}
	return delays, nil
}

package main

import (
	"fmt"
	"time"

	"stark"
)

// replayConfig sizes the replay workload: the Stark-E configuration of the
// paper's Sec. IV-E over the merged taxi+tweet trace. The cluster, group
// bounds and partitioning are those of the paper-figure experiments; the
// sizes below set how much of the trace one pass replays.
type replayConfig struct {
	Window     int // steps the stream keeps cached
	Steps      int // timed steps per pass (the ops)
	BurstEvery int // every BurstEvery-th step runs a query burst
	Burst      int // queries per burst
}

func defaultReplay() replayConfig {
	return replayConfig{Window: 12, Steps: 36, BurstEvery: 4, Burst: 10}
}

const (
	replayGrid      = 64  // cells per side of the taxi generator's Z-grid
	replayFineParts = 512 // static range partitions; a power of two for the Group Tree
	replayGroups    = 32
	replayEvents    = 2000 // taxi events per step before the diurnal factor
	replayQueryRate = 20   // burst arrival rate, queries per virtual second
	replayStartHour = 2    // trace hour of the first timed step
)

type replay struct {
	base
	cfg    replayConfig
	steps  [][]stark.Record // warm window, then one per timed step
	stream *stark.Stream
	part   stark.Partitioner
}

func (c replayConfig) workload() workload {
	return workload{name: "replay", ops: c.Steps, setup: c.setup}
}

func (c replayConfig) setup(seed int64, par int, tr *tracer) (instance, error) {
	r := &replay{cfg: c}
	taxi := stark.DefaultTaxiTrace()
	taxi.Seed = seed
	taxi.EventsPerStep = replayEvents
	tw := stark.DefaultTwitterTrace()
	tw.Seed = seed
	first := replayStartHour*taxi.StepsPerHour - c.Window

	sp := tr.begin("workload.generate")
	r.steps = make([][]stark.Record, c.Window+c.Steps)
	for i := range r.steps {
		r.steps[i] = stark.MergedTaxiTweets(taxi, tw, first+i)
		r.records += len(r.steps[i])
	}
	tr.end(sp)

	cc := stark.DefaultClusterConfig()
	cc.NumExecutors = 40
	cc.SlotsPerExecutor = 16
	cc.MemoryPerExecutor = 448 << 20
	cc.SizeScale = 220
	cc.GroupPartitionOverhead = 200 * time.Microsecond
	r.ctx = stark.NewContext(
		stark.WithClusterConfig(cc),
		stark.WithExtendable(stark.GroupBounds(96<<20, 24<<20, c.Window)),
		stark.WithMCF(),
		stark.WithLocalityWait(250*time.Millisecond),
		stark.WithSeed(1),
		stark.WithParallelism(par),
	)
	r.ns = "taxi"
	r.part = stark.NewStaticRangePartitioner(zBounds(replayGrid, replayFineParts))
	s, err := r.ctx.NewStream(stark.StreamConfig{
		Name: "taxi", Partitioner: r.part, Namespace: r.ns,
		InitialGroups: replayGroups, Window: c.Window, ReportSizes: true,
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	r.stream = s
	for i := 0; i < c.Window; i++ {
		if err := r.ingest(i, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// zBounds splits the Z-code range of a side x side grid into parts equal
// ranges, in the generator's fixed-width hex key format.
func zBounds(side, parts int) []string {
	cells := side * side
	out := make([]string, 0, parts-1)
	for i := 1; i < parts; i++ {
		out = append(out, fmt.Sprintf("%016x", i*cells/parts))
	}
	return out
}

func (r *replay) ingest(step int, tr *tracer) error {
	sp := tr.begin("stream.ingest")
	rdd := r.stream.Ingest(step, r.steps[step])
	d := tr.begin("engine.drain")
	r.ctx.Drain()
	tr.end(d)
	tr.end(sp)
	if rdd.PartitionSizes() == nil {
		return fmt.Errorf("replay: step %d not materialized", step)
	}
	return nil
}

// replayQuery is what the reference needs to evaluate one query.
type replayQuery struct {
	lo, n          int // window steps [lo, lo+n)
	keyLo, keyHi   string
	windowMismatch bool
}

func (r *replay) op(i int, tr *tracer) ([]time.Duration, error) {
	step := r.cfg.Window + i
	if err := r.ingest(step, tr); err != nil {
		return nil, err
	}
	if i%r.cfg.BurstEvery != 0 {
		return nil, nil
	}
	qs := make([]replayQuery, r.cfg.Burst)
	inter := time.Second / replayQueryRate
	sp := tr.begin("engine.openloop")
	res := r.ctx.OpenLoop(inter, r.cfg.Burst, func(q int) *stark.RDD {
		return r.query(step, i/r.cfg.BurstEvery*r.cfg.Burst+q, &qs[q])
	})
	tr.end(sp)
	delays := make([]time.Duration, len(res))
	for q, qr := range res {
		delays[q] = qr.Delay
		if qs[q].windowMismatch {
			return delays, fmt.Errorf("replay: op %d query %d: stream window missing steps", i, q)
		}
		qq := qs[q]
		r.expect(i, fmt.Sprintf("query %d distinct keys", q), qr.Count, func() int64 {
			return distinctKeys(r.steps[qq.lo:qq.lo+qq.n], func(k string) bool {
				return k >= qq.keyLo && k <= qq.keyHi
			})
		})
	}
	return delays, nil
}

// query builds the k-th query of the pass, arriving after step latest: a
// cogroup over 2-5 consecutive live steps, filtered to one of the 16
// quadtree regions of the grid at depth 2 (the paper's time-range x region
// queries). Spans, window offsets and regions follow a fixed cycle rather
// than random draws, so every seed runs the same query mix and only the
// data differ.
func (r *replay) query(latest, k int, rq *replayQuery) *stark.RDD {
	rq.n = 2 + k%4
	rq.lo = latest - r.cfg.Window + 1 + (k*7)%(r.cfg.Window-rq.n+1)
	const regions = 16
	span := replayGrid * replayGrid / regions
	region := k % regions
	rq.keyLo, rq.keyHi = fmt.Sprintf("%016x", region*span), fmt.Sprintf("%016x", (region+1)*span-1)
	window := r.stream.Range(rq.lo, rq.lo+rq.n-1)
	rq.windowMismatch = len(window) != rq.n
	lo, hi := rq.keyLo, rq.keyHi
	return r.ctx.CoGroup(r.part, window...).Filter(func(rec stark.Record) bool {
		return rec.Key >= lo && rec.Key <= hi
	})
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"stark"
)

// shuffleConfig sizes the shuffle workload: fresh lineage every job, no
// namespace, no cache, no MCF, so only the data plane's shuffle kernels
// and the per-task scheduling path do work.
type shuffleConfig struct {
	Keys    int // key space of each side
	Records int // records per side
	Pairs   int // distinct input pairs, used round robin
	Jobs    int // timed join jobs per pass (the ops)
}

// shuffleParts is the partition count of the inputs and of both shuffles.
const shuffleParts = 8

func defaultShuffle() shuffleConfig {
	return shuffleConfig{Keys: 20000, Records: 40000, Pairs: 4, Jobs: 40}
}

type shufflePair struct {
	a, b   [][]stark.Record
	common int64 // -1 until the reference has run
}

// commonKeys is the reference result of one join job: ReduceByKey and
// GroupByKey each leave one record per key, so the inner join has one
// record per key present on both sides.
func (p *shufflePair) commonKeys() int64 {
	if p.common >= 0 {
		return p.common
	}
	left := map[string]bool{}
	for _, part := range p.a {
		for _, r := range part {
			left[r.Key] = true
		}
	}
	both := map[string]bool{}
	for _, part := range p.b {
		for _, r := range part {
			if left[r.Key] {
				both[r.Key] = true
			}
		}
	}
	p.common = int64(len(both))
	return p.common
}

type shuffle struct {
	base
	cfg   shuffleConfig
	pairs []*shufflePair
	part  stark.Partitioner
}

func (c shuffleConfig) workload() workload {
	return workload{name: "shuffle", ops: c.Jobs, setup: c.setup}
}

func (c shuffleConfig) setup(seed int64, par int, tr *tracer) (instance, error) {
	s := &shuffle{cfg: c, part: stark.NewHashPartitioner(shuffleParts)}
	sp := tr.begin("workload.generate")
	rng := rand.New(rand.NewSource(seed))
	side := func(offset int) [][]stark.Record {
		recs := make([]stark.Record, c.Records)
		for i := range recs {
			recs[i] = stark.Pair(fmt.Sprintf("k%08d", offset+rng.Intn(c.Keys)), int64(1+rng.Intn(9)))
		}
		return chunk(recs, shuffleParts)
	}
	for i := 0; i < c.Pairs; i++ {
		// B's key range overlaps A's by three quarters.
		s.pairs = append(s.pairs, &shufflePair{a: side(0), b: side(c.Keys / 4), common: -1})
		s.records += 2 * c.Records
	}
	tr.end(sp)
	s.ctx = stark.NewContext(stark.WithSeed(1), stark.WithParallelism(par))
	return s, nil
}

func sumInt64(a, b any) any { return a.(int64) + b.(int64) }

func (s *shuffle) op(i int, tr *tracer) ([]time.Duration, error) {
	p := s.pairs[i%len(s.pairs)]
	a := s.ctx.FromPartitions(fmt.Sprintf("a%d", i), p.a, false)
	b := s.ctx.FromPartitions(fmt.Sprintf("b%d", i), p.b, false)
	job := a.ReduceByKey(s.part, sumInt64).Join(s.part, b.GroupByKey(s.part))
	sp := tr.begin("engine.count")
	n, jm, err := job.Count()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("shuffle: op %d: %w", i, err)
	}
	s.expect(i, "joined keys", n, p.commonKeys)
	return []time.Duration{jm.Makespan()}, nil
}

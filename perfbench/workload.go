package main

import (
	"fmt"
	"time"

	"stark"
)

// workload is one set of inputs the benchmark runs. setup generates the
// inputs from the seed, builds a fresh Context and warms it up; the
// returned instance then runs ops timed ops. The program sees only the
// generated records, never the seed.
type workload struct {
	name  string
	ops   int
	setup func(seed int64, par int, tr *tracer) (instance, error)
}

// instance is a set-up workload on its own Context.
type instance interface {
	state() *base
	// op runs timed op i and returns the virtual delays of the queries it
	// ran. Results it must check go to base.checks, to be compared with
	// the reference after the timed region.
	op(i int, tr *tracer) ([]time.Duration, error)
}

// base is the state every instance shares.
type base struct {
	ctx     *stark.Context
	ns      string // locality namespace, "" for none
	records int    // records generated for this instance
	checks  []check
}

func (b *base) state() *base { return b }

// check is one job result. want runs the reference evaluator over the
// generated inputs; it is called only after the timed region.
type check struct {
	op   int
	what string
	got  int64
	want func() int64
}

func (b *base) expect(op int, what string, got int64, want func() int64) {
	b.checks = append(b.checks, check{op: op, what: what, got: got, want: want})
}

// verify evaluates every reference and returns the ops whose results
// differ, with a description of the first mismatch.
func (b *base) verify() (map[int]bool, string) {
	bad := map[int]bool{}
	first := ""
	for _, c := range b.checks {
		if w := c.want(); w != c.got {
			bad[c.op] = true
			if first == "" {
				first = fmt.Sprintf("op %d %s: got %d, reference %d", c.op, c.what, c.got, w)
			}
		}
	}
	return bad, first
}

// chunk splits recs into n contiguous parts.
func chunk(recs []stark.Record, n int) [][]stark.Record {
	out := make([][]stark.Record, n)
	for i, r := range recs {
		p := i * n / len(recs)
		out[p] = append(out[p], r)
	}
	return out
}

// distinctKeys counts the distinct keys of the datasets, the reference
// result of a cogroup (one output record per key) or, with keep, of a
// filtered one.
func distinctKeys(sets [][]stark.Record, keep func(string) bool) int64 {
	seen := map[string]struct{}{}
	for _, s := range sets {
		for _, r := range s {
			if keep == nil || keep(r.Key) {
				seen[r.Key] = struct{}{}
			}
		}
	}
	return int64(len(seen))
}

var workloads = map[string]workload{
	"replay":  defaultReplay().workload(),
	"shuffle": defaultShuffle().workload(),
	"churn":   defaultChurn().workload(),
}

package record_test

import (
	"fmt"
	"testing"

	"stark/internal/partition"
	"stark/internal/record"
)

// budgetRecords builds the allocation-budget input: count records over keys
// distinct short string keys.
func budgetRecords(count, keys int) []record.Record {
	rs := make([]record.Record, count)
	for i := range rs {
		rs[i] = record.Pair(fmt.Sprintf("key-%05d", i%keys), int64(i))
	}
	return rs
}

// TestAllocBudgets holds the allocs/op ceilings of the data-plane hot paths,
// so allocation wins cannot silently rot. Each case runs the kernel the
// engine runs. Under -race, sync.Pool drops some puts, which adds a few
// allocations per run; the ceilings leave room for that.
func TestAllocBudgets(t *testing.T) {
	var sink int
	var scr record.Scratch
	cases := []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"groupbykey-sorted", 16, groupBudget(&sink)},
		{"shuffle-bucketing", 16, bucketBudget(&sink, &scr)},
		{"shuffle-rw", 160, shuffleRWBudget(&sink, &scr)},
		{"join", 56000, joinBudget(&sink)},
		{"cogroup", 7300, coGroupBudget(&sink)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(10, tc.fn)
			t.Logf("%s: %.0f allocs/op (ceiling %.0f)", tc.name, got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%s: %.1f allocs/op exceeds budget %.1f (run `go run ./cmd/starklint ./...` — hotalloc findings point at the per-call allocations on the annotated hot paths)",
					tc.name, got, tc.ceiling)
			}
		})
	}
}

// groupBudget is the reduce-side grouping shape: 20k records over 1.5k keys
// through GroupByKeySorted.
func groupBudget(sink *int) func() {
	data := budgetRecords(20000, 1500)
	return func() {
		for _, g := range record.GroupByKeySorted(data) {
			*sink += len(g.Values)
		}
	}
}

// bucketBudget is the map side of a shuffle as engine.bucketMapOutput runs
// it: lift the partition into a batch, route every row off its slab hash,
// and reorder it bucket-major with PartitionStable.
func bucketBudget(sink *int, scr *record.Scratch) func() {
	data := budgetRecords(20000, 20000)
	const parts = 64
	p := partition.NewHash(parts)
	return func() {
		b := record.FromRecords(data)
		n := b.Len()
		idx := scr.I32.Take(n)
		for i := 0; i < n; i++ {
			idx[i] = int32(p.PartitionForHash(b.Hash32(i)))
		}
		*sink += len(b.PartitionStable(idx, parts, scr).Spans)
		scr.Reset()
	}
}

// shuffleRWBudget is a full 8-map × 16-reduce shuffle write+read round trip
// on the columnar path the engine and store share: one batch per map task
// partitioned by counting sort into span views, slab-range checksums at
// write and verify, and an exact-size concat per reduce partition.
func shuffleRWBudget(sink *int, scr *record.Scratch) func() {
	const maps, reduces, perMap = 8, 16, 10000
	p := partition.NewHash(reduces)
	mapData := make([][]record.Record, maps)
	for m := range mapData {
		rs := make([]record.Record, perMap)
		for i := range rs {
			rs[i] = record.Pair(fmt.Sprintf("k-%d-%05d", m, i), int64(i))
		}
		mapData[m] = rs
	}
	type spanBucket struct {
		b      *record.Batch
		lo, hi int32
		sum    uint64
	}
	return func() {
		// Write: per map task, one columnar batch partitioned by counting
		// sort into span views, checksums off the key slab.
		outputs := make([][]spanBucket, maps)
		for m, data := range mapData {
			b := record.FromRecords(data)
			n := b.Len()
			idx := scr.I32.Take(n)
			for i := 0; i < n; i++ {
				idx[i] = int32(p.PartitionForHash(b.Hash32(i)))
			}
			pb := b.PartitionStable(idx, reduces, scr)
			bs := make([]spanBucket, reduces)
			for _, sp := range pb.Spans {
				bs[sp.Part] = spanBucket{
					b: pb.Batch, lo: sp.Lo, hi: sp.Hi,
					sum: pb.Batch.KeySumRange(int(sp.Lo), int(sp.Hi)),
				}
			}
			outputs[m] = bs
			scr.Reset()
		}
		// Read: slab-range verify, then one exact-size concat per reduce
		// partition.
		for r := 0; r < reduces; r++ {
			total := int32(0)
			for m := 0; m < maps; m++ {
				sb := outputs[m][r]
				if sb.b.KeySumRange(int(sb.lo), int(sb.hi)) != sb.sum {
					panic("checksum mismatch")
				}
				total += sb.hi - sb.lo
			}
			out := make([]record.Record, 0, total)
			for m := 0; m < maps; m++ {
				sb := outputs[m][r]
				out = append(out, sb.b.Records()[sb.lo:sb.hi]...)
			}
			*sink += len(out)
		}
	}
}

// joinBudget is the rdd.Join body: JoinRecords over two 8k-record sides
// sharing 1.2k keys.
func joinBudget(sink *int) func() {
	left := budgetRecords(8000, 1200)
	right := budgetRecords(8000, 1200)
	return func() {
		*sink += len(record.JoinRecords(left, right))
	}
}

// coGroupBudget is the rdd.CoGroup body in churn's shape: CoGroupRecords
// over 3 parents of 6k records drawn from 8,192 host keys. Beyond a fixed
// handful of slices it allocates one CoGrouped box per distinct key.
func coGroupBudget(sink *int) func() {
	inputs := record.CoGroupBenchInputs(3, 6000, 8192)
	return func() {
		*sink += len(record.CoGroupRecords(inputs))
	}
}

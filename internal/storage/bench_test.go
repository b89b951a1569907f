package storage

import (
	"fmt"
	"testing"

	"stark/internal/partition"
	"stark/internal/record"
)

// BenchmarkShuffleReadWrite measures the full store round trip on the
// columnar path: partition each map output into a span-view batch, commit it
// with WriteMapOutputBatch (slab-range checksums), then read every reduce
// partition back through ReadReduce (slab-range verify, exact-size concat).
// allocs/op is the headline number; the record package's TestAllocBudgets
// holds the ceiling of the same round trip without the Store.
func BenchmarkShuffleReadWrite(b *testing.B) {
	const maps, reduces, perMap = 8, 16, 2500
	p := partition.NewHash(reduces)
	mapData := make([][]record.Record, maps)
	for m := range mapData {
		rs := make([]record.Record, perMap)
		for i := range rs {
			rs[i] = record.Pair(fmt.Sprintf("key-%d-%05d", m, i), int64(i))
		}
		mapData[m] = rs
	}
	var scr record.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		if err := s.RegisterShuffle(1, maps, reduces); err != nil {
			b.Fatal(err)
		}
		for m := 0; m < maps; m++ {
			bt := record.FromRecords(mapData[m])
			idx := scr.I32.Take(bt.Len())
			for j := range idx {
				idx[j] = int32(p.PartitionForHash(bt.Hash32(j)))
			}
			pb := bt.PartitionStable(idx, reduces, &scr)
			for si := range pb.Spans {
				pb.Spans[si].Bytes = pb.Spans[si].RawBytes
			}
			if err := s.WriteMapOutputBatch(1, m, pb); err != nil {
				b.Fatal(err)
			}
			scr.Reset()
		}
		s.PrepareShuffleReads()
		got := 0
		for r := 0; r < reduces; r++ {
			rs, _, err := s.ReadReduce(1, r)
			if err != nil {
				b.Fatal(err)
			}
			got += len(rs)
		}
		if got != maps*perMap {
			b.Fatalf("read %d records, want %d", got, maps*perMap)
		}
	}
}

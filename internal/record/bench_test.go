package record

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchData(n, keys int) []Record {
	rs := make([]Record, n)
	for i := range rs {
		rs[i] = Pair(fmt.Sprintf("key-%05d", i%keys), int64(i))
	}
	return rs
}

// CoGroupBenchInputs builds churn's cogroup shape: parents datasets of
// perParent records each, keys drawn from one shared space of keys hosts.
// It is exported for the external allocation-budget test.
func CoGroupBenchInputs(parents, perParent, keys int) [][]Record {
	inputs := make([][]Record, parents)
	for p := range inputs {
		rng := rand.New(rand.NewSource(int64(p + 1)))
		rs := make([]Record, perParent)
		for i := range rs {
			rs[i] = Pair(fmt.Sprintf("host-%05d", rng.Intn(keys)), int64(i))
		}
		inputs[p] = rs
	}
	return inputs
}

func BenchmarkGroupByKeySorted(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range GroupByKeySorted(data) {
			if len(g.Values) == 0 {
				b.Fatal("empty group")
			}
		}
	}
}

func BenchmarkCoGroupRecords(b *testing.B) {
	inputs := CoGroupBenchInputs(3, 6000, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(CoGroupRecords(inputs)) == 0 {
			b.Fatal("empty cogroup")
		}
	}
}

func BenchmarkJoin(b *testing.B) {
	left := benchData(8000, 1200)
	right := benchData(8000, 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(JoinRecords(left, right)) == 0 {
			b.Fatal("empty join")
		}
	}
}

func BenchmarkFromRecords(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FromRecords(data).Len() != len(data) {
			b.Fatal("length mismatch")
		}
	}
}

func BenchmarkPartitionStable(b *testing.B) {
	data := benchData(20000, 20000)
	const parts = 64
	var scr Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := FromRecords(data)
		idx := scr.I32.Take(bt.Len())
		for j := range idx {
			idx[j] = int32(bt.Hash32(j) % parts)
		}
		if pb := bt.PartitionStable(idx, parts, &scr); len(pb.Spans) == 0 {
			b.Fatal("no spans")
		}
		scr.Reset()
	}
}

func BenchmarkFingerprint(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(data)
	}
}

func BenchmarkSizeOfSlice(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SizeOfSlice(data)
	}
}

package record_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stark/internal/record"
)

// corpora the round-trip properties run over: uniform and mixed value types,
// binary keys, empty and single-key partitions.
func batchCorpora() map[string][]record.Record {
	mixed := []record.Record{
		{Key: "a", Value: int64(1)},
		{Key: "b", Value: "text"},
		{Key: "a", Value: 3.5},
		{Key: "", Value: record.Joined{Left: int64(1), Right: "r"}},
		{Key: "z\xff\x00z", Value: nil},
	}
	ints := []record.Record{
		{Key: "k1", Value: int64(10)},
		{Key: "k2", Value: int64(-3)},
		{Key: "k1", Value: int64(0)},
	}
	floats := []record.Record{
		{Key: "f", Value: 1.25},
		{Key: "g", Value: -0.5},
	}
	strs := []record.Record{
		{Key: "s", Value: "alpha"},
		{Key: "t", Value: ""},
	}
	singleKey := []record.Record{
		{Key: "only", Value: int64(1)},
		{Key: "only", Value: int64(2)},
		{Key: "only", Value: int64(3)},
	}
	rng := rand.New(rand.NewSource(7))
	big := make([]record.Record, 500)
	for i := range big {
		big[i] = record.Record{Key: fmt.Sprintf("key-%03d", rng.Intn(40)), Value: int64(i)}
	}
	return map[string][]record.Record{
		"mixed-spill": mixed,
		"int64":       ints,
		"float64":     floats,
		"string":      strs,
		"empty":       nil,
		"single-key":  singleKey,
		"big":         big,
	}
}

func TestBatchRoundTripIdentity(t *testing.T) {
	for name, rs := range batchCorpora() {
		t.Run(name, func(t *testing.T) {
			b := record.FromRecords(rs)
			if b.Len() != len(rs) {
				t.Fatalf("Len = %d, want %d", b.Len(), len(rs))
			}
			if back := b.Records(); !reflect.DeepEqual(back, rs) {
				t.Fatalf("Records mismatch:\n got %v\nwant %v", back, rs)
			}
			b2 := record.FromRecords(b.Records())
			if !reflect.DeepEqual(b2.Records(), rs) {
				t.Fatalf("FromRecords(Records(b)) not identity")
			}
			for i := range rs {
				if b2.Key(i) != b.Key(i) || b2.Hash32(i) != b.Hash32(i) {
					t.Fatalf("round-trip changed key %d: %q/%#x != %q/%#x",
						i, b2.Key(i), b2.Hash32(i), b.Key(i), b.Hash32(i))
				}
			}
		})
	}
}

func TestBatchMatchesRowPaths(t *testing.T) {
	for name, rs := range batchCorpora() {
		t.Run(name, func(t *testing.T) {
			b := record.FromRecords(rs)
			for i, r := range rs {
				if b.Key(i) != r.Key {
					t.Fatalf("Key(%d) = %q, want %q", i, b.Key(i), r.Key)
				}
				f := fnv.New32a()
				f.Write([]byte(r.Key))
				if b.Hash32(i) != f.Sum32() {
					t.Fatalf("Hash32(%d) diverges from hash/fnv", i)
				}
			}
			// KeySumRange over every sub-range matches the per-record checksum.
			for lo := 0; lo <= len(rs); lo++ {
				for hi := lo; hi <= len(rs); hi++ {
					if got, want := b.KeySumRange(lo, hi), record.KeySum64(rs[lo:hi]); got != want {
						t.Fatalf("KeySumRange(%d,%d) = %#x, want %#x", lo, hi, got, want)
					}
				}
			}
		})
	}
}

func TestPartitionStableMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scr record.Scratch
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 1}, {64, 8}, {500, 3}, {40, 10000} /* sparse path */, {3, 5000},
	} {
		rs := make([]record.Record, tc.n)
		for i := range rs {
			rs[i] = record.Record{Key: fmt.Sprintf("k%04d", rng.Intn(200)), Value: int64(i)}
		}
		b := record.FromRecords(rs)
		idx := make([]int32, tc.n)
		for i := range idx {
			idx[i] = int32(int(b.Hash32(i)) % tc.parts)
		}
		pb := b.PartitionStable(idx, tc.parts, &scr)
		scr.Reset()

		// Naive reference: stable bucketing by append.
		naive := make(map[int][]record.Record)
		for i, r := range rs {
			naive[int(idx[i])] = append(naive[int(idx[i])], r)
		}
		var parts []int
		for p := range naive {
			parts = append(parts, p)
		}
		sort.Ints(parts)
		if len(pb.Spans) != len(parts) {
			t.Fatalf("n=%d parts=%d: %d spans, want %d", tc.n, tc.parts, len(pb.Spans), len(parts))
		}
		rows := pb.Batch.Records()
		for si, p := range parts {
			sp := pb.Spans[si]
			if sp.Part != p {
				t.Fatalf("span %d part = %d, want %d", si, sp.Part, p)
			}
			got := rows[sp.Lo:sp.Hi]
			if !reflect.DeepEqual(got, naive[p]) {
				t.Fatalf("bucket %d rows differ", p)
			}
			var raw int64
			for _, r := range naive[p] {
				raw += record.SizeOfRecord(r)
			}
			if sp.RawBytes != raw {
				t.Fatalf("bucket %d RawBytes = %d, want %d", p, sp.RawBytes, raw)
			}
			if got2, want := pb.Batch.KeySumRange(int(sp.Lo), int(sp.Hi)), record.KeySum64(naive[p]); got2 != want {
				t.Fatalf("bucket %d checksum diverges", p)
			}
		}
	}
}

func TestGroupByKeySortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(300)
		rs := make([]record.Record, n)
		for i := range rs {
			rs[i] = record.Record{Key: fmt.Sprintf("g%02d", rng.Intn(25)), Value: i}
		}
		groups := record.GroupByKeySorted(rs)
		m, keys := record.GroupByKey(rs)
		if len(groups) != len(keys) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(groups), len(keys))
		}
		for i, k := range keys {
			if groups[i].Key != k {
				t.Fatalf("trial %d: group %d key %q, want %q", trial, i, groups[i].Key, k)
			}
			if !reflect.DeepEqual(groups[i].Values, m[k]) {
				t.Fatalf("trial %d: group %q values differ", trial, k)
			}
		}
	}
}

func TestJoinRecordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		mk := func(n, keys int, tag string) []record.Record {
			rs := make([]record.Record, n)
			for i := range rs {
				rs[i] = record.Record{Key: fmt.Sprintf("j%02d", rng.Intn(keys)), Value: fmt.Sprintf("%s%d", tag, i)}
			}
			return rs
		}
		left := mk(rng.Intn(120), 18, "L")
		right := mk(rng.Intn(120), 18, "R")
		got := record.JoinRecords(left, right)

		// Reference: the pre-batch map implementation's exact output order.
		lm, lkeys := record.GroupByKey(left)
		rm, _ := record.GroupByKey(right)
		var want []record.Record
		for _, k := range lkeys {
			rv, ok := rm[k]
			if !ok {
				continue
			}
			for _, lv := range lm[k] {
				for _, r := range rv {
					want = append(want, record.Record{Key: k, Value: record.Joined{Left: lv, Right: r}})
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: join output differs (%d vs %d records)", trial, len(got), len(want))
		}
	}
}

func TestJoinRecordsEmptySides(t *testing.T) {
	rs := []record.Record{{Key: "k", Value: 1}}
	if out := record.JoinRecords(nil, rs); out != nil {
		t.Fatalf("join with empty left = %v, want nil", out)
	}
	if out := record.JoinRecords(rs, nil); out != nil {
		t.Fatalf("join with empty right = %v, want nil", out)
	}
}

package storage

import (
	"errors"
	"sort"
	"testing"

	"stark/internal/record"
)

// mapOutput builds the partitioned batch WriteMapOutputBatch commits from
// per-reduce rows and the bytes charged for each bucket. An entry with no
// rows still yields an (empty) bucket, as a bytes-only map output.
func mapOutput(buckets map[int]Bucket) *record.PartitionedBatch {
	parts := make([]int, 0, len(buckets))
	for r := range buckets {
		parts = append(parts, r)
	}
	sort.Ints(parts)
	var rows []record.Record
	spans := make([]record.Span, 0, len(parts))
	for _, r := range parts {
		lo := int32(len(rows))
		rows = append(rows, buckets[r].Data...)
		spans = append(spans, record.Span{Part: r, Lo: lo, Hi: int32(len(rows)), Bytes: buckets[r].Bytes})
	}
	return &record.PartitionedBatch{Batch: record.FromRecords(rows), Spans: spans}
}

func TestShuffleLifecycle(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterShuffle(1, 2, 3); err != nil {
		t.Fatalf("idempotent register: %v", err)
	}
	if err := s.RegisterShuffle(1, 4, 3); err == nil {
		t.Fatal("conflicting geometry accepted")
	}
	if s.ShuffleComplete(1) {
		t.Fatal("empty shuffle complete")
	}
	if got := s.MissingMapOutputs(1); len(got) != 2 {
		t.Fatalf("missing = %v", got)
	}
	if err := s.WriteMapOutputBatch(1, 0, mapOutput(map[int]Bucket{
		0: {Data: []record.Record{record.Pair("a", 1)}, Bytes: 10},
		2: {Data: []record.Record{record.Pair("c", 1)}, Bytes: 20},
	})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadReduce(1, 0); err == nil {
		t.Fatal("read from incomplete shuffle succeeded")
	}
	if err := s.WriteMapOutputBatch(1, 1, mapOutput(map[int]Bucket{
		0: {Data: []record.Record{record.Pair("a2", 1)}, Bytes: 5},
	})); err != nil {
		t.Fatal(err)
	}
	if !s.ShuffleComplete(1) {
		t.Fatal("shuffle not complete")
	}
	data, bytes, err := s.ReadReduce(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || bytes != 15 {
		t.Fatalf("data=%v bytes=%d", data, bytes)
	}
	// Reduce partition with no buckets reads empty.
	data, bytes, err = s.ReadReduce(1, 1)
	if err != nil || len(data) != 0 || bytes != 0 {
		t.Fatalf("empty reduce: %v %d %v", data, bytes, err)
	}
}

func TestShuffleValidation(t *testing.T) {
	s := NewStore()
	if err := s.WriteMapOutputBatch(9, 0, mapOutput(nil)); err == nil {
		t.Fatal("write to unknown shuffle accepted")
	}
	if _, _, err := s.ReadReduce(9, 0); err == nil {
		t.Fatal("read unknown shuffle accepted")
	}
	if err := s.RegisterShuffle(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMapOutputBatch(2, 5, mapOutput(nil)); err == nil {
		t.Fatal("out-of-range map partition accepted")
	}
	if err := s.WriteMapOutputBatch(2, 0, mapOutput(map[int]Bucket{7: {}})); err == nil {
		t.Fatal("out-of-range reduce partition accepted")
	}
}

func TestMapOutputOverwrite(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMapOutputBatch(1, 0, mapOutput(map[int]Bucket{0: {Bytes: 10}})); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMapOutputBatch(1, 0, mapOutput(map[int]Bucket{0: {Bytes: 30}})); err != nil {
		t.Fatal(err)
	}
	_, bytes, err := s.ReadReduce(1, 0)
	if err != nil || bytes != 30 {
		t.Fatalf("bytes = %d, %v", bytes, err)
	}
}

func TestCheckpoints(t *testing.T) {
	s := NewStore()
	if s.HasCheckpoint(1, 0) {
		t.Fatal("phantom checkpoint")
	}
	s.WriteCheckpoint(1, 0, []record.Record{record.Pair("k", 1)}, 100)
	s.WriteCheckpoint(1, 1, nil, 50)
	if !s.HasCheckpoint(1, 0) || !s.HasCheckpoint(1, 1) {
		t.Fatal("checkpoints missing")
	}
	if s.TotalCheckpointBytes() != 150 {
		t.Fatalf("total = %d", s.TotalCheckpointBytes())
	}
	data, bytes, err := s.ReadCheckpoint(1, 0)
	if err != nil || bytes != 100 || len(data) != 1 {
		t.Fatalf("read: %v %d %v", data, bytes, err)
	}
	if _, _, err := s.ReadCheckpoint(2, 0); err == nil {
		t.Fatal("read missing checkpoint succeeded")
	}
	// Overwrite adjusts the running total instead of double counting.
	s.WriteCheckpoint(1, 0, nil, 80)
	if s.TotalCheckpointBytes() != 130 {
		t.Fatalf("total after overwrite = %d", s.TotalCheckpointBytes())
	}
	s.DropCheckpoints(1)
	if s.TotalCheckpointBytes() != 0 || s.HasCheckpoint(1, 0) {
		t.Fatal("drop failed")
	}
}

func TestCorruptMapOutputDetectedAndHealedByOverwrite(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	write := func(mapPart int) {
		if err := s.WriteMapOutputBatch(1, mapPart, mapOutput(map[int]Bucket{
			0: {Data: []record.Record{record.Pair("a", mapPart)}, Bytes: 10},
			1: {Data: []record.Record{record.Pair("b", mapPart)}, Bytes: 10},
		})); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	write(1)
	if !s.CorruptMapOutput(1, 1) {
		t.Fatal("corrupt reported no block")
	}
	if s.CorruptMapOutput(2, 0) || s.CorruptMapOutput(1, 5) {
		t.Fatal("corrupting a nonexistent block reported success")
	}
	_, _, err := s.ReadReduce(1, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of corrupt shuffle block: err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Checkpoint || ce.Shuffle != 1 || ce.MapPart != 1 {
		t.Fatalf("corrupt error coordinates = %+v", ce)
	}
	// A recomputed map task overwrites the block and restores integrity.
	write(1)
	if _, _, err := s.ReadReduce(1, 0); err != nil {
		t.Fatalf("read after overwrite: %v", err)
	}
}

func TestCorruptCheckpointDetected(t *testing.T) {
	s := NewStore()
	s.WriteCheckpoint(3, 0, []record.Record{record.Pair("k", 1)}, 100)
	if !s.CorruptCheckpoint(3, 0) {
		t.Fatal("corrupt reported no block")
	}
	if s.CorruptCheckpoint(3, 9) {
		t.Fatal("corrupting a nonexistent checkpoint reported success")
	}
	_, _, err := s.ReadCheckpoint(3, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || !ce.Checkpoint || ce.RDD != 3 || ce.Part != 0 {
		t.Fatalf("corrupt error coordinates = %+v", ce)
	}
	// HasCheckpoint still reports presence — detection happens on read.
	if !s.HasCheckpoint(3, 0) {
		t.Fatal("corrupt checkpoint vanished before read")
	}
	// Rewriting the checkpoint restores integrity.
	s.WriteCheckpoint(3, 0, []record.Record{record.Pair("k", 1)}, 100)
	if _, _, err := s.ReadCheckpoint(3, 0); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}

func TestDropShuffle(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMapOutputBatch(1, 0, mapOutput(map[int]Bucket{0: {Bytes: 1}})); err != nil {
		t.Fatal(err)
	}
	s.DropShuffle(1)
	if s.ShuffleComplete(1) || s.HasMapOutput(1, 0) {
		t.Fatal("shuffle survived drop")
	}
}

package durable_test

import (
	"reflect"
	"testing"

	durable "repro"
)

// TestOpenFlavors: each source/option combination yields the matching
// concrete engine, and it answers like the brute-force oracle.
func TestOpenFlavors(t *testing.T) {
	ds := buildDataset(t, 300)
	q := durable.Query{K: 2, Tau: 10, Start: 1, End: 1 << 30, Scorer: durable.MustLinear(1, 0.5)}
	want := durable.BruteForce(ds, q.Scorer, q.K, q.Tau, q.Start, q.End, durable.LookBack)
	assertSame := func(eng durable.Querier) {
		t.Helper()
		res, err := eng.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.IDs(), want) {
			t.Fatalf("answer %v, oracle %v", res.IDs(), want)
		}
	}

	batch, err := durable.Open(durable.FromDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := batch.(*durable.Engine); !ok {
		t.Fatalf("FromDataset yielded %T, want *Engine", batch)
	}
	assertSame(batch)

	sharded, err := durable.Open(durable.FromDataset(ds),
		durable.WithSharding(durable.ShardOptions{Shards: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sharded.(*durable.ShardedEngine); !ok {
		t.Fatalf("WithSharding yielded %T, want *ShardedEngine", sharded)
	}
	assertSame(sharded)

	live, err := durable.Open(durable.FromStream(2))
	if err != nil {
		t.Fatal(err)
	}
	le, ok := live.(*durable.LiveEngine)
	if !ok {
		t.Fatalf("FromStream yielded %T, want *LiveEngine", live)
	}
	liveSharded, err := durable.Open(durable.FromStream(2),
		durable.WithLiveSharding(durable.LiveShardOptions{SealRows: 64}))
	if err != nil {
		t.Fatal(err)
	}
	lse, ok := liveSharded.(*durable.LiveShardedEngine)
	if !ok {
		t.Fatalf("WithLiveSharding yielded %T, want *LiveShardedEngine", liveSharded)
	}
	for i := 0; i < ds.Len(); i++ {
		if _, _, err := le.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	assertSame(le)
	assertSame(lse)
}

func TestOpenRejectsIncoherentOptions(t *testing.T) {
	ds := buildDataset(t, 10)
	bad := [][]durable.OpenOption{
		{}, // no source
		{durable.FromDataset(ds), durable.FromStream(2)},
		{durable.FromDataset(ds), durable.WithLiveOptions(durable.LiveOptions{})},
		{durable.FromDataset(ds), durable.WithLiveSharding(durable.LiveShardOptions{})},
		{durable.FromStream(2), durable.WithSharding(durable.ShardOptions{Shards: 4})},
	}
	for i, opts := range bad {
		if _, err := durable.Open(opts...); err == nil {
			t.Errorf("combination %d accepted", i)
		}
	}
}

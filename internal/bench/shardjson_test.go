package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteShardJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sharded.json")
	if err := WriteShardJSON(tinyConfig(), "ind-600", path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep ShardReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Dataset != "ind-600" || rep.Records != 600 || rep.GOMAXPROCS < 1 {
		t.Fatalf("bad report header: %+v", rep)
	}
	if len(rep.Rows) != len(shardSweep) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(shardSweep))
	}
	for i, row := range rep.Rows {
		if row.Shards != shardSweep[i] {
			t.Fatalf("row %d shards %d, want %d", i, row.Shards, shardSweep[i])
		}
		if row.NsPerOp <= 0 {
			t.Fatalf("row %d has no measurement: %+v", i, row)
		}
	}
	if rep.Rows[0].Speedup != 1 {
		t.Fatalf("baseline speedup %.2f, want 1", rep.Rows[0].Speedup)
	}
}

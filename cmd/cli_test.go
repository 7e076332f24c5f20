// Package cmd_test builds the CLI binaries and exercises their end-to-end
// flows: synthesize a dataset with durgen, query it with durquery in its
// various modes, and list the durbench experiment registry.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// binaries are built once per test binary into a shared temp dir.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "durable-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"durgen", "durquery", "durbench", "durserved"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = mustSelfDir()
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(tool + " build failed: " + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// mustSelfDir returns the cmd/ source directory (this package's directory).
func mustSelfDir() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return wd
}

func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", tool, args, out)
	}
	return string(out)
}

func TestGenQueryRoundTrip(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "2000", "-d", "2", "-seed", "3", "-out", csv)
	st, err := os.Stat(csv)
	if err != nil || st.Size() == 0 {
		t.Fatalf("durgen produced nothing: %v", err)
	}

	out := run(t, "durquery", "-input", csv, "-k", "3", "-tau", "200", "-weights", "1,0.5")
	if !strings.Contains(out, "durable records") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "id=") {
		t.Fatalf("missing result rows:\n%s", out)
	}

	// Every algorithm agrees on the answer count.
	var counts []string
	for _, alg := range []string{"t-base", "t-hop", "s-base", "s-band", "s-hop"} {
		o := run(t, "durquery", "-input", csv, "-k", "3", "-tau", "200", "-alg", alg, "-stats")
		counts = append(counts, strings.Fields(o)[1])
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("algorithms disagree on CLI: %v", counts)
		}
	}
}

func TestQueryModes(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "anti", "-n", "1500", "-d", "2", "-out", csv)

	withDur := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "100", "-durations")
	if !strings.Contains(withDur, "max-durability=") {
		t.Fatalf("durations missing:\n%s", withDur)
	}
	ahead := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "100", "-anchor", "look-ahead", "-stats")
	if !strings.Contains(ahead, "durable records") {
		t.Fatalf("look-ahead failed:\n%s", ahead)
	}
	most := run(t, "durquery", "-input", csv, "-k", "2", "-mostdurable", "4")
	if !strings.Contains(most, "most durable records") || strings.Count(most, "id=") != 4 {
		t.Fatalf("mostdurable output wrong:\n%s", most)
	}
}

func TestQueryErrors(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "100", "-d", "2", "-out", csv)
	runExpectError(t, "durquery", "-input", csv, "-weights", "1,2,3") // wrong arity
	runExpectError(t, "durquery", "-input", csv, "-alg", "bogus")
	runExpectError(t, "durquery", "-input", csv, "-anchor", "sideways")
	runExpectError(t, "durquery", "-input", filepath.Join(t.TempDir(), "missing.csv"))
	runExpectError(t, "durgen", "-kind", "nonsense")
}

func TestBenchList(t *testing.T) {
	out := run(t, "durbench", "-list")
	for _, id := range []string{"fig1", "fig8", "fig12", "tab4", "tab6", "lemma4", "abl-forest"} {
		if !strings.Contains(out, id) {
			t.Fatalf("registry listing missing %s:\n%s", id, out)
		}
	}
	runExpectError(t, "durbench", "-exp", "not-an-experiment")
}

func TestGenKinds(t *testing.T) {
	for _, kind := range []string{"nba", "network", "rpm", "stocks"} {
		csv := filepath.Join(t.TempDir(), kind+".csv")
		args := []string{"-kind", kind, "-n", "500", "-out", csv}
		if kind == "stocks" {
			args = []string{"-kind", kind, "-n", "10", "-d", "30", "-out", csv}
		}
		run(t, "durgen", args...)
		data, err := os.ReadFile(csv)
		if err != nil || !strings.HasPrefix(string(data), "time,attr0") {
			t.Fatalf("%s: bad CSV output", kind)
		}
	}
}

func TestQueryJSON(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "800", "-d", "2", "-out", csv)
	out := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "150", "-json")
	var parsed struct {
		Records []struct {
			ID   int   `json:"ID"`
			Time int64 `json:"Time"`
		} `json:"records"`
		Stats struct {
			CheckQueries int `json:"CheckQueries"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(parsed.Records) == 0 {
		t.Fatal("JSON output has no records")
	}
	for i := 1; i < len(parsed.Records); i++ {
		if parsed.Records[i].Time <= parsed.Records[i-1].Time {
			t.Fatal("JSON records not time-ascending")
		}
	}
}

func TestQueryExpressionFlags(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "1200", "-d", "2", "-out", csv)

	// A linear expression must match the equivalent -weights run.
	w := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "150", "-weights", "1,0.5", "-stats")
	e := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "150", "-score", "x0 + 0.5*x1", "-stats")
	if strings.Fields(w)[1] != strings.Fields(e)[1] {
		t.Fatalf("expression and weights disagree:\n%s\n%s", w, e)
	}

	nl := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "150", "-score", "log1p(x0) + sqrt(x1)", "-stats")
	if !strings.Contains(nl, "durable records") {
		t.Fatalf("non-linear expression failed:\n%s", nl)
	}
	runExpectError(t, "durquery", "-input", csv, "-score", "log1p(")
	runExpectError(t, "durquery", "-input", csv, "-score", "x7") // out of range
}

func TestQueryGeneralAnchorAndExplain(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "1200", "-d", "2", "-out", csv)

	mid := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "150",
		"-anchor", "general", "-lead", "75", "-stats")
	if !strings.Contains(mid, "durable records") {
		t.Fatalf("general anchor failed:\n%s", mid)
	}
	runExpectError(t, "durquery", "-input", csv, "-k", "2", "-tau", "150",
		"-anchor", "general", "-lead", "151") // lead > tau

	plan := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "150", "-explain")
	for _, tok := range []string{"plan:", "t-hop", "cost"} {
		if !strings.Contains(plan, tok) {
			t.Fatalf("explain output missing %q:\n%s", tok, plan)
		}
	}
}

func TestServedEndToEnd(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "durserved"),
		"-addr", "127.0.0.1:0", "-gen", "toy=ind:1500", "-seed", "5")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The server logs its bound address; scan for it.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not report its address")
	}

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	infos, err := cl.Datasets()
	if err != nil || len(infos) != 1 || infos[0].Name != "toy" {
		t.Fatalf("datasets: %v %+v", err, infos)
	}
	recs, st, err := cl.Query(wire.Request{Dataset: "toy", QuerySpec: wire.QuerySpec{K: 2, Tau: 150, Expr: "x0 + x1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || st.Algorithm == "" {
		t.Fatalf("empty answer over TCP: %d records, stats %+v", len(recs), st)
	}
}

func TestQueryShardedModes(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "2000", "-d", "2", "-out", csv)

	// Compare the full record listings (every id/time/score line), not just
	// the summary count, so shard-to-global id mapping bugs surface here.
	recordLines := func(out string) string {
		var recs []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "id=") {
				recs = append(recs, line)
			}
		}
		return strings.Join(recs, "\n")
	}
	seq := recordLines(run(t, "durquery", "-input", csv, "-k", "3", "-tau", "150"))
	if seq == "" {
		t.Fatal("baseline query returned no records")
	}
	for _, extra := range [][]string{
		{"-shards", "4"},
		{"-shards", "4", "-alg", "s-band"},
		{"-shards", "7", "-shardby", "timespan"},
	} {
		args := append([]string{"-input", csv, "-k", "3", "-tau", "150"}, extra...)
		out := recordLines(run(t, "durquery", args...))
		if out != seq {
			t.Fatalf("sharded CLI records differ (%v):\n%s\n---\n%s", extra, out, seq)
		}
	}
	// A span has no skyband ladder: pinned S-Band hops, and the stats say so.
	if band := run(t, "durquery", "-input", csv, "-k", "3", "-tau", "150", "-shards", "4", "-alg", "s-band", "-stats"); !strings.Contains(band, "alg=s-hop") {
		t.Fatalf("sharded -alg s-band does not report s-hop:\n%s", band)
	}
	// Sharded durations and most-durable flow through the same Querier.
	dur := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "100", "-shards", "3", "-durations")
	if !strings.Contains(dur, "max-durability=") {
		t.Fatalf("sharded durations missing:\n%s", dur)
	}
	most := run(t, "durquery", "-input", csv, "-k", "2", "-shards", "3", "-mostdurable", "4")
	if strings.Count(most, "id=") != 4 {
		t.Fatalf("sharded mostdurable wrong:\n%s", most)
	}
	runExpectError(t, "durquery", "-input", csv, "-shards", "4", "-shardby", "hash")
}

func TestServedSharded(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "durserved"),
		"-addr", "127.0.0.1:0", "-gen", "toy=ind:1500", "-seed", "5",
		"-shards", "4", "-shardby", "timespan")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("sharded server did not report its address")
	}
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	recs, st, err := cl.Query(wire.Request{Dataset: "toy", QuerySpec: wire.QuerySpec{K: 2, Tau: 150, Expr: "x0 + x1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || st.Algorithm == "" {
		t.Fatalf("empty sharded answer over TCP: %d records, stats %+v", len(recs), st)
	}
}

func TestQueryLiveMode(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "2000", "-d", "2", "-out", csv)

	recordLines := func(out string) string {
		var recs []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "id=") {
				recs = append(recs, line)
			}
		}
		return strings.Join(recs, "\n")
	}
	batch := recordLines(run(t, "durquery", "-input", csv, "-k", "3", "-tau", "150"))
	if batch == "" {
		t.Fatal("baseline query returned no records")
	}
	live := recordLines(run(t, "durquery", "-input", csv, "-k", "3", "-tau", "150", "-live"))
	if live != batch {
		t.Fatalf("live CLI records differ from batch:\n%s\n---\n%s", live, batch)
	}
	// Durations, expressions and most-durable flow through the same Querier.
	dur := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "100", "-live", "-durations")
	if !strings.Contains(dur, "max-durability=") {
		t.Fatalf("live durations missing:\n%s", dur)
	}
	most := run(t, "durquery", "-input", csv, "-k", "2", "-live", "-mostdurable", "4")
	if strings.Count(most, "id=") != 4 {
		t.Fatalf("live mostdurable wrong:\n%s", most)
	}
	runExpectError(t, "durquery", "-input", csv, "-live", "-shards", "4")

	// The live+sharded lifecycle (-sealrows / -sealspan) must answer
	// bit-identically too, across several seal boundaries.
	for _, extra := range [][]string{
		{"-sealrows", "300"},
		{"-sealspan", "40"},
		{"-sealrows", "256", "-sealspan", "500"},
	} {
		args := append([]string{"-input", csv, "-k", "3", "-tau", "150", "-live"}, extra...)
		if got := recordLines(run(t, "durquery", args...)); got != batch {
			t.Fatalf("live-sharded CLI records (%v) differ from batch:\n%s\n---\n%s", extra, got, batch)
		}
	}
	durSharded := run(t, "durquery", "-input", csv, "-k", "2", "-tau", "100", "-live", "-sealrows", "300", "-durations")
	if !strings.Contains(durSharded, "max-durability=") {
		t.Fatalf("live-sharded durations missing:\n%s", durSharded)
	}
}

// TestServedLiveIngest pipes a durgen stream into durserved -live -ingest
// (the `durgen | durserved` deployment) and watches records become queryable
// over the wire while also appending through the protocol itself.
func TestServedLiveIngest(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "feed.csv")
	run(t, "durgen", "-kind", "ind", "-n", "1200", "-d", "2", "-seed", "7", "-out", csv)
	feed, err := os.Open(csv)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	// -sealrows serves the feed through the live+sharded lifecycle: 1200
	// ingested records seal exactly four 300-row shards (the tail is empty
	// right at the drain point), all behind the same wire contract.
	cmd := exec.Command(filepath.Join(binDir, "durserved"),
		"-addr", "127.0.0.1:0", "-live", "feed=2", "-ingest", "feed", "-sealrows", "300")
	cmd.Stdin = feed
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not report its address")
	}

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Wait for the stdin ingest to drain (1200 records).
	deadline := time.Now().Add(15 * time.Second)
	var got int
	for time.Now().Before(deadline) {
		infos, err := cl.Datasets()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || !infos[0].Live {
			t.Fatalf("live dataset not listed: %+v", infos)
		}
		got = infos[0].Len
		if got == 1200 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got != 1200 {
		t.Fatalf("ingest stalled at %d of 1200 records", got)
	}
	if infos, err := cl.Datasets(); err != nil {
		t.Fatal(err)
	} else if infos[0].Shards != 4 {
		t.Fatalf("live-sharded feed reports %d shards, want 4 sealed (300-row seals over 1200 records)", infos[0].Shards)
	}

	// Queries serve the ingested stream.
	recs, st, err := cl.Query(wire.Request{Dataset: "feed", QuerySpec: wire.QuerySpec{K: 3, Tau: 150, Weights: []float64{1, 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || st.Algorithm == "" {
		t.Fatalf("no live answer over TCP: %d records", len(recs))
	}

	// Appending through the wire keeps working after stdin drained. The
	// ingest lock clears asynchronously once the feed goroutine exits, so
	// retry briefly.
	infos, err := cl.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.AppendRetry("feed",
		[]wire.IngestRow{{Time: infos[0].End + 10, Attrs: []float64{1, 2}}},
		wire.RetryPolicy{MaxAttempts: 1 << 10, BaseDelay: 5 * time.Millisecond,
			MaxDelay: 100 * time.Millisecond, MaxElapsed: 10 * time.Second})
	if err != nil {
		t.Fatalf("append after ingest drain: %v (after %d retries)", err, cl.Retries())
	}
	if resp.Appended != 1 {
		t.Fatalf("wire append response %+v", resp)
	}
}

// startServed launches durserved with args, waits for its listen address,
// and returns the process plus every stderr line emitted before "listening".
func startServed(t *testing.T, args ...string) (*exec.Cmd, string, []string) {
	t.Helper()
	return startServedAt(t, "127.0.0.1:0", args...)
}

// startServedAt is startServed with an explicit bind address — crash-restart
// tests need the reborn process on the address its clients keep dialing.
func startServedAt(t *testing.T, addr string, args ...string) (*exec.Cmd, string, []string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "durserved"),
		append([]string{"-addr", addr}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	type startup struct {
		addr  string
		lines []string
	}
	ch := make(chan startup, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				ch <- startup{strings.TrimSpace(line[i+len("listening on "):]), lines}
				return
			}
			lines = append(lines, line)
		}
	}()
	select {
	case st := <-ch:
		return cmd, st.addr, st.lines
	case <-time.After(10 * time.Second):
		t.Fatal("durserved did not report its address")
		return nil, "", nil
	}
}

// TestServedWALCrashRecovery is the end-to-end durability flow: feed a
// served live dataset over the wire, SIGKILL the server, restart it on the
// same -wal directory and require every acknowledged record back —
// checkpointed shards loaded in bulk, only the unsealed tail replayed.
func TestServedWALCrashRecovery(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	served := []string{"-live", "feed=2", "-sealrows", "100", "-wal", walDir, "-fsync", "always", "-conntimeout", "30s"}
	retry := wire.RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond, MaxElapsed: 10 * time.Second}

	cmd, addr, _ := startServed(t, served...)
	cl, err := wire.DialRetry(addr, retry)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]wire.IngestRow, 250)
	for i := range rows {
		rows[i] = wire.IngestRow{Time: int64(i + 1), Attrs: []float64{float64(i % 37), float64(i % 11)}}
	}
	for off := 0; off < len(rows); off += 50 {
		resp, err := cl.AppendRetry("feed", rows[off:off+50], retry)
		if err != nil || resp.Appended != 50 {
			t.Fatalf("append batch at %d: %d rows, %v", off, resp.Appended, err)
		}
	}
	cl.Close()
	// SIGKILL: no graceful close, no final flush. With -fsync always every
	// acknowledged append must already be on disk.
	cmd.Process.Kill()
	cmd.Wait()

	_, addr2, lines := startServed(t, served...)
	recovered := strings.Join(lines, "\n")
	// 250 rows at -sealrows 100: two checkpointed shards load without WAL
	// replay; only the 50-row unsealed tail replays.
	if !strings.Contains(recovered, "recovered \"feed\": 200 rows from 2 checkpointed shards, 50 replayed") {
		t.Fatalf("recovery line missing or wrong:\n%s", recovered)
	}
	cl2, err := wire.DialRetry(addr2, retry)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	infos, err := cl2.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Live || infos[0].Len != 250 {
		t.Fatalf("recovered dataset info %+v, want live feed with 250 rows", infos)
	}
	// Ingestion resumes at the exact next record, and queries serve the
	// reunited stream.
	resp, err := cl2.AppendRetry("feed", []wire.IngestRow{{Time: 251, Attrs: []float64{5, 5}}}, retry)
	if err != nil || resp.Appended != 1 {
		t.Fatalf("resumed append: %+v, %v", resp, err)
	}
	recs, _, err := cl2.Query(wire.Request{Dataset: "feed", QuerySpec: wire.QuerySpec{K: 2, Tau: 40, Weights: []float64{1, 0.5}}})
	if err != nil || len(recs) == 0 {
		t.Fatalf("query after recovery: %d records, %v", len(recs), err)
	}
}

// TestServedStandingQueryCrashResume is the full fault-tolerant standing
// query flow, end to end through real processes: a Follower subscribes to a
// WAL-backed durserved, the server is SIGKILLed mid-stream and restarted on
// the same WAL directory and address, and the follower's merged verdict
// stream must come out gap-free — strictly contiguous prefixes, zero resets
// (the registration itself survived the crash via the checkpoint manifest),
// with every verdict re-derived bit-identically by querying the recovered
// server across all five strategies.
func TestServedStandingQueryCrashResume(t *testing.T) {
	// Reserve a concrete port so the restarted server binds the exact
	// address the Follower keeps re-dialing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	walDir := filepath.Join(t.TempDir(), "wal")
	served := []string{"-live", "feed=2", "-sealrows", "60", "-wal", walDir, "-fsync", "always",
		"-keepcheckpoints", "2", "-subscriptions", "-conntimeout", "30s"}
	retry := wire.RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond, MaxElapsed: 10 * time.Second}

	cmd, _, _ := startServedAt(t, addr, served...)

	const k, tau = 2, 60
	weights := []float64{1, 0.5}
	f, err := wire.Follow(addr, wire.Request{Dataset: "feed",
		QuerySpec: wire.QuerySpec{K: k, Tau: tau, Weights: weights}},
		wire.RetryPolicy{MaxAttempts: 1 << 16, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Commit 100 rows before the crash, 40 after; mirror the stream so the
	// re-derivation below queries exactly what was acknowledged.
	rng := rand.New(rand.NewSource(11))
	var mirror []wire.IngestRow
	nextRows := func(n int) []wire.IngestRow {
		var tm int64
		if len(mirror) > 0 {
			tm = mirror[len(mirror)-1].Time
		}
		out := make([]wire.IngestRow, n)
		for i := range out {
			tm += int64(1 + rng.Intn(3))
			out[i] = wire.IngestRow{Time: tm, Attrs: []float64{rng.Float64() * 50, rng.Float64() * 10}}
		}
		mirror = append(mirror, out...)
		return out
	}
	cl, err := wire.DialRetry(addr, retry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if resp, err := cl.AppendRetry("feed", nextRows(20), retry); err != nil || resp.Appended != 20 {
			t.Fatalf("append batch %d: %+v, %v", i, resp, err)
		}
	}
	cl.Close()

	// Drain far enough to prove the subscription is established and events
	// are flowing, then SIGKILL mid-stream — no graceful close, no flush.
	var events []wire.Event
	lastPrefix := 0
	collect := func(until int) {
		t.Helper()
		deadline := time.After(60 * time.Second)
		for lastPrefix < until {
			select {
			case ev, ok := <-f.Events():
				if !ok {
					t.Fatalf("follower stream died at prefix %d: %v", lastPrefix, f.Err())
				}
				if ev.Prefix != lastPrefix+1 {
					t.Fatalf("merged stream not gap-free: prefix %d after %d (reconnects=%d resets=%d)",
						ev.Prefix, lastPrefix, f.Reconnects(), f.Resets())
				}
				lastPrefix = ev.Prefix
				events = append(events, ev)
			case <-deadline:
				t.Fatalf("stalled at prefix %d/%d (reconnects=%d): %v",
					lastPrefix, until, f.Reconnects(), f.Err())
			}
		}
	}
	collect(40)
	cmd.Process.Kill()
	cmd.Wait()

	// Restart on the same WAL directory and address. Recovery must bring
	// back both the rows and the standing registration itself.
	_, _, lines := startServedAt(t, addr, served...)
	recovered := strings.Join(lines, "\n")
	if !strings.Contains(recovered, "recovered \"feed\":") {
		t.Fatalf("no recovery line after crash:\n%s", recovered)
	}
	if !strings.Contains(recovered, "restored 1 standing subscription") {
		t.Fatalf("standing registration did not survive the crash:\n%s", recovered)
	}

	cl2, err := wire.DialRetry(addr, retry)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < 2; i++ {
		if resp, err := cl2.AppendRetry("feed", nextRows(20), retry); err != nil || resp.Appended != 20 {
			t.Fatalf("post-crash append batch %d: %+v, %v", i, resp, err)
		}
	}
	collect(len(mirror))

	// The crash must have actually interrupted the stream, and recovery must
	// have been a by-key resume of the persisted registration — never a
	// fresh-subscription reset (which would re-deliver history).
	if f.Reconnects() == 0 {
		t.Fatal("follower never reconnected across the server crash")
	}
	if got := f.Resets(); got != 0 {
		t.Fatalf("%d resets: the durable registration was not resumed after restart", got)
	}
	t.Logf("stream stayed contiguous across SIGKILL: %d events, %d reconnects",
		len(events), f.Reconnects())

	// Re-derive every verdict by querying the recovered server at each
	// event's own timestamp. Look-back decisions and closed look-ahead
	// windows are suffix-stable, so the final committed prefix answers for
	// every earlier one — and all five strategies must agree with the push.
	verify := func(id int, evTime int64, durable bool, anchor string) {
		t.Helper()
		if mirror[id].Time != evTime {
			t.Fatalf("record %d: event time %d, stream committed %d", id, evTime, mirror[id].Time)
		}
		for _, alg := range []string{"t-base", "t-hop", "s-base", "s-band", "s-hop"} {
			recs, _, err := cl2.Query(wire.Request{Dataset: "feed", QuerySpec: wire.QuerySpec{
				K: k, Tau: tau, Start: evTime, End: evTime, ExplicitInterval: true,
				Anchor: anchor, Algorithm: alg, Weights: weights,
			}})
			if err != nil {
				t.Fatalf("reference query (%s): %v", alg, err)
			}
			found := false
			for _, r := range recs {
				if r.ID == id {
					found = true
				}
			}
			if found != durable {
				t.Fatalf("record %d (%s): pushed durable=%v, %s re-derives %v",
					id, anchor, durable, alg, found)
			}
		}
	}
	decisions, confirms := 0, 0
	for _, ev := range events {
		if d := ev.Decision; d != nil {
			decisions++
			if d.ID != ev.Prefix-1 {
				t.Fatalf("decision %+v does not describe prefix %d's append", d, ev.Prefix)
			}
			verify(d.ID, d.Time, d.Durable, "look-back")
		}
		for _, c := range ev.Confirms {
			if c.Truncated {
				continue
			}
			confirms++
			verify(c.ID, c.Time, c.Durable, "look-ahead")
		}
	}
	if decisions != len(mirror) {
		t.Fatalf("merged stream carries %d decisions over %d committed rows", decisions, len(mirror))
	}
	if confirms == 0 {
		t.Fatal("no look-ahead confirmations crossed the crash; raise rows or shrink tau")
	}
	t.Logf("re-derived %d decisions and %d confirmations from the recovered server", decisions, confirms)
}

func TestQueryLiveFlagConflicts(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "data.csv")
	run(t, "durgen", "-kind", "ind", "-n", "200", "-d", "2", "-out", csv)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-live", "-shards", "2"}, "-live and -shards are mutually exclusive"},
		{[]string{"-sealrows", "50"}, "-sealrows/-sealspan require -live"},
	} {
		if out := runExpectError(t, "durquery", append([]string{"-input", csv}, c.args...)...); !strings.Contains(out, c.want) {
			t.Fatalf("durquery %v failed without naming the conflict %q:\n%s", c.args, c.want, out)
		}
	}
}

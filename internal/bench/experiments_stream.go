package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/data"
	"repro/internal/monitor"
	"repro/internal/score"
	"repro/internal/topk"
)

// runExtStream compares the two ways this repository decides look-back
// durability on a live stream: appending to the forest index and probing it
// (one range top-k query per arrival), versus the dedicated monitor's
// order-statistic treap (no index at all). Both produce identical
// decisions; the experiment measures sustained arrivals per second as the
// window widens, plus the monitor's extra look-ahead confirmations.
func runExtStream(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(40_000)
	header(w, fmt.Sprintf("Extension: streaming durability, forest probes vs monitor (n=%d, k=%d)", n, defaultK))
	ta := newTable(w)
	ta.row("window (ticks)", "forest arrivals/s", "monitor arrivals/s", "monitor+ahead arrivals/s", "flags")

	sweep := []int64{256, 1024, 4096, 16384}
	if cfg.Quick {
		sweep = sweep[:2]
	}
	for _, tau := range sweep {
		// One shared arrival sequence per window size.
		rng := rand.New(rand.NewSource(cfg.Seed))
		times := make([]int64, n)
		vals := make([][]float64, n)
		var now int64
		for i := 0; i < n; i++ {
			now += int64(1 + rng.Intn(3))
			times[i] = now
			vals[i] = []float64{rng.Float64() * 100}
		}
		s, err := score.NewSingle(0, 1)
		if err != nil {
			return err
		}

		forestFlags, forestSec, err := streamViaForest(times, vals, s, defaultK, tau)
		if err != nil {
			return err
		}
		monFlags, monSec, err := streamViaMonitor(times, vals, s, defaultK, tau, false)
		if err != nil {
			return err
		}
		_, aheadSec, err := streamViaMonitor(times, vals, s, defaultK, tau, true)
		if err != nil {
			return err
		}
		if forestFlags != monFlags {
			return fmt.Errorf("stream experiment: forest flagged %d, monitor %d", forestFlags, monFlags)
		}
		ta.row(tau,
			fmt.Sprintf("%.0f", float64(n)/forestSec),
			fmt.Sprintf("%.0f", float64(n)/monSec),
			fmt.Sprintf("%.0f", float64(n)/aheadSec),
			monFlags)
	}
	ta.flush()
	fmt.Fprintln(w, "\nexpected: identical flags; the monitor sustains a higher, window-size-"+
		"\ninsensitive rate (O(log w) treap step vs index append + range probe)")
	return nil
}

func streamViaForest(times []int64, vals [][]float64, s score.Scorer, k int, tau int64) (flags int, seconds float64, err error) {
	tail, err := data.NewAppendable(1, 0)
	if err != nil {
		return 0, 0, err
	}
	forest := topk.NewForest(tail, topk.Options{})
	start := time.Now()
	for i := range times {
		if err := forest.Append(times[i], vals[i]); err != nil {
			return 0, 0, err
		}
		items := forest.Query(s, k, times[i]-tau, times[i])
		sc := s.Score(vals[i])
		if len(items) < k || sc >= items[k-1].Score {
			flags++
		}
	}
	return flags, time.Since(start).Seconds(), nil
}

func streamViaMonitor(times []int64, vals [][]float64, s score.Scorer, k int, tau int64, ahead bool) (flags int, seconds float64, err error) {
	m, err := monitor.New(k, tau, s, monitor.Options{TrackAhead: ahead})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := range times {
		dec, _, err := m.Observe(times[i], vals[i])
		if err != nil {
			return 0, 0, err
		}
		if dec.Durable {
			flags++
		}
	}
	m.Finish()
	return flags, time.Since(start).Seconds(), nil
}

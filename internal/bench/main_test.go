package bench

import (
	"flag"
	"os"
	"testing"
)

// smokeBenchtime is the benchtime the experiments' testing.Benchmark
// measurements run at in this package's tests. The default, one second per
// measured point, made the experiment smoke tests spend most of their time
// measuring; no test here asserts a timing beyond a positive ns/op.
const smokeBenchtime = "20x"

// TestMain runs the package's tests at smokeBenchtime unless -test.benchtime
// was given on the command line (CI's "-benchtime 1x" smoke run, or a real
// measurement), which is then honoured as is.
func TestMain(m *testing.M) {
	flag.Parse()
	given := false
	flag.Visit(func(f *flag.Flag) { given = given || f.Name == "test.benchtime" })
	if !given {
		if err := flag.Set("test.benchtime", smokeBenchtime); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

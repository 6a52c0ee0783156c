// Command benchjson converts `go test -bench` text output on stdin to
// machine-readable JSON on stdout, the input scripts/benchdiff compares.
// CI's keystream, trace-ingest and span-overhead gates build both sides of
// their diff with it:
//
//	go test -run '^$' -bench 'BenchmarkKeystream|BenchmarkSkip' -benchtime 300ms -count 3 ./internal/rc4 > kernel.txt
//	go run ./scripts/benchjson -min < kernel.txt > kernel.json
//
// -min collapses `-count N` repeats to the fastest run per benchmark — the
// statistic the gates diff. Input containing no benchmark
// lines at all is an error (exit 1), never an empty JSON document: a bench
// step whose output vanished is a broken bench step.
package main

import (
	"flag"
	"fmt"
	"os"

	"rc4break/internal/cliutil"
)

func main() {
	minRuns := flag.Bool("min", false, "collapse -count N repeats to the minimum ns/op per benchmark")
	flag.Parse()
	if err := cliutil.WriteBenchJSON(os.Stdin, os.Stdout, *minRuns); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

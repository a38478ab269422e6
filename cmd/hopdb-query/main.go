// Command hopdb-query answers point-to-point distance queries against an
// index built by hopdb-build, through the backend-agnostic hopdb.Open
// entry point. Queries are "s t" pairs, one per line, read from -q (the
// conventional "-" means stdin, as does omitting -q). -idx reads the
// index onto the heap, or with -mmap memory-maps it; -disk serves the
// same v2 file from disk instead, reading two label rows per query, and
// reports I/O counts.
//
// Usage:
//
//	echo "3 17" | hopdb-query -idx graph.idx
//	hopdb-query -idx graph.idx -mmap -q queries.txt
//	hopdb-query -disk graph.idx -q -      # explicit stdin
//
// Exit status:
//
//	0  every query answered and reachable
//	1  at least one pair was unreachable
//	2  usage error (bad flags)
//	3  bad input (malformed query lines) or a runtime failure
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	hopdb "repro"
)

// Exit codes; "unreachable" and "bad input" are deliberately distinct so
// scripts can tell an empty answer from a broken pipeline.
const (
	exitOK          = 0
	exitUnreachable = 1
	exitUsage       = 2
	exitBadInput    = 3
)

func main() {
	var (
		idxPath  = flag.String("idx", "", "loadable index file")
		diskPath = flag.String("disk", "", "index file (v2 flat format) to serve from disk, labels unloaded")
		qPath    = flag.String("q", "-", `query file ("-" or empty = stdin)`)
		cache    = flag.Int("cache", 0, "disk label cache entries")
		useMmap  = flag.Bool("mmap", false, "memory-map the -idx file (v2 flat format) and serve the labels from the mapping, paged on demand")
	)
	flag.Parse()
	if (*idxPath == "") == (*diskPath == "") {
		fmt.Fprintln(os.Stderr, "hopdb-query: exactly one of -idx/-disk is required")
		os.Exit(exitUsage)
	}
	if *useMmap && *idxPath == "" {
		fmt.Fprintln(os.Stderr, "hopdb-query: -mmap requires -idx")
		os.Exit(exitUsage)
	}

	path := *idxPath
	var opts []hopdb.OpenOption
	if *diskPath != "" {
		path = *diskPath
		opts = append(opts, hopdb.WithDisk(hopdb.DiskOptions{CacheLabels: *cache}))
	} else if *useMmap {
		opts = append(opts, hopdb.WithMmap())
	}
	q, err := hopdb.Open(path, opts...)
	if err != nil {
		fail(err)
	}
	defer q.Close()
	// Fallible backends (disk) report real failures through Lookup;
	// those must abort with exit 3, not print "unreachable".
	lookup := func(s, t int32) (uint32, bool, error) {
		d, ok := q.Distance(s, t)
		return d, ok, nil
	}
	if lq, ok := q.(hopdb.Lookuper); ok {
		lookup = lq.Lookup
	}

	var in io.Reader = os.Stdin
	if *qPath != "" && *qPath != "-" {
		f, err := os.Open(*qPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	w := bufio.NewWriter(os.Stdout)
	count := 0
	badInput := false
	unreachable := false
	start := time.Now()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		var (
			s, t int64
			err1 error
			err2 error
		)
		if len(fields) >= 2 {
			s, err1 = strconv.ParseInt(fields[0], 10, 32)
			t, err2 = strconv.ParseInt(fields[1], 10, 32)
		}
		if len(fields) < 2 || err1 != nil || err2 != nil {
			fmt.Fprintf(os.Stderr, "skipping malformed line %q\n", line)
			badInput = true
			continue
		}
		d, ok, err := lookup(int32(s), int32(t))
		if err != nil {
			w.Flush()
			fail(err)
		}
		if !ok {
			unreachable = true
			fmt.Fprintf(w, "%d %d unreachable\n", s, t)
		} else {
			fmt.Fprintf(w, "%d %d %d\n", s, t, d)
		}
		count++
	}
	scanErr := sc.Err()
	w.Flush()
	if scanErr != nil {
		fail(scanErr)
	}
	elapsed := time.Since(start)
	if count > 0 {
		st := q.Stats()
		kernel := string(st.Kernel)
		if kernel == "" {
			kernel = string(hopdb.KernelScalar)
		}
		fmt.Fprintf(os.Stderr, "%d queries in %v (%.2f us/query) backend=%s kernel=%s\n",
			count, elapsed, elapsed.Seconds()/float64(count)*1e6, st.Backend, kernel)
	}
	if d := hopdb.Disk(q); d != nil && count > 0 {
		fmt.Fprintf(os.Stderr, "disk I/O: %d block reads (%.2f per query)\n", d.IOs(), float64(d.IOs())/float64(count))
	}
	switch {
	case badInput:
		os.Exit(exitBadInput)
	case unreachable:
		os.Exit(exitUnreachable)
	}
	os.Exit(exitOK)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopdb-query:", err)
	os.Exit(exitBadInput)
}

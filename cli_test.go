package hopdb

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the cmd binaries into dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestCLIPipeline drives the full toolchain: generate a graph, inspect
// it, build both index formats, and query them.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is slow; skipped in -short mode")
	}
	dir := t.TempDir()
	genBin := buildTool(t, dir, "hopdb-gen")
	statsBin := buildTool(t, dir, "hopdb-stats")
	buildBin := buildTool(t, dir, "hopdb-build")
	queryBin := buildTool(t, dir, "hopdb-query")

	graphPath := filepath.Join(dir, "g.txt")
	out, err := exec.Command(genBin, "-model", "glp", "-n", "800", "-density", "4", "-seed", "3", "-o", graphPath).CombinedOutput()
	if err != nil {
		t.Fatalf("hopdb-gen: %v\n%s", err, out)
	}
	if _, err := os.Stat(graphPath); err != nil {
		t.Fatalf("graph file missing: %v", err)
	}

	out, err = exec.Command(statsBin, "-in", graphPath).CombinedOutput()
	if err != nil {
		t.Fatalf("hopdb-stats: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "rank exponent") {
		t.Errorf("stats output unexpected:\n%s", out)
	}

	idxPath := filepath.Join(dir, "g.idx")
	out, err = exec.Command(buildBin, "-in", graphPath, "-o", idxPath, "-stats").CombinedOutput()
	if err != nil {
		t.Fatalf("hopdb-build: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "built:") {
		t.Errorf("build output unexpected:\n%s", out)
	}

	// External build path as well.
	extIdx := filepath.Join(dir, "g-ext.idx")
	out, err = exec.Command(buildBin, "-in", graphPath, "-o", extIdx, "-external", "-tmp", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("hopdb-build -external: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "external I/O") {
		t.Errorf("external build output missing I/O line:\n%s", out)
	}

	// Query both formats and compare answers.
	queries := "0 1\n5 99\n700 3\n"
	run := func(args ...string) string {
		cmd := exec.Command(queryBin, args...)
		cmd.Stdin = strings.NewReader(queries)
		out, err := cmd.Output()
		// Exit 1 means some pair was unreachable — a successful run for
		// this cross-check, which only compares the answers.
		var ee *exec.ExitError
		if err != nil && (!errors.As(err, &ee) || ee.ExitCode() != 1) {
			t.Fatalf("hopdb-query %v: %v", args, err)
		}
		return string(out)
	}
	memOut := run("-idx", idxPath)
	mmapOut := run("-idx", idxPath, "-mmap")
	diskOut := run("-disk", idxPath)
	extOut := run("-idx", extIdx)
	if memOut != diskOut || memOut != extOut || memOut != mmapOut {
		t.Errorf("query outputs differ:\nmem:\n%s\nmmap:\n%s\ndisk:\n%s\next:\n%s", memOut, mmapOut, diskOut, extOut)
	}
	if len(strings.Split(strings.TrimSpace(memOut), "\n")) != 3 {
		t.Errorf("expected 3 answers, got:\n%s", memOut)
	}
}

// TestCLIBenchSmoke runs one tiny bench section through the CLI, and
// pins that the CLI is the paper scoreboard only: the serve / benchjson /
// benchcmp subcommands the benchmark/ harness replaced are usage errors.
func TestCLIBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI bench is slow; skipped in -short mode")
	}
	dir := t.TempDir()
	benchBin := buildTool(t, dir, "hopdb-bench")
	out, err := exec.Command(benchBin, "-datasets", "enron", "-scale", "0.2", "-queries", "50", "table7").CombinedOutput()
	if err != nil {
		t.Fatalf("hopdb-bench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "enron") {
		t.Errorf("bench output unexpected:\n%s", out)
	}

	const usage = "usage: hopdb-bench [flags] all|table6|table7|table8|fig8|fig9|fig10|assumptions\n"
	for _, gone := range []string{"serve", "benchjson", "benchcmp"} {
		out, err := exec.Command(benchBin, gone).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("hopdb-bench %s: %v, want exit 2", gone, err)
		}
		if !strings.HasPrefix(string(out), usage) {
			t.Errorf("hopdb-bench %s does not lead with the usage line:\n%s", gone, out)
		}
	}
}

// TestQueryCLIStdinAndExitCodes pins down the hopdb-query contract:
// "-q -" (and omitting -q) reads stdin, and the exit status separates
// all-reachable (0), unreachable pairs present (1), and bad input (3).
func TestQueryCLIStdinAndExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exit-code test builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	buildBin := buildTool(t, dir, "hopdb-build")
	queryBin := buildTool(t, dir, "hopdb-query")

	// Two components: 0-1-2 and 3-4.
	graphPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(graphPath, []byte("0 1\n1 2\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "g.idx")
	if out, err := exec.Command(buildBin, "-in", graphPath, "-o", idxPath).CombinedOutput(); err != nil {
		t.Fatalf("hopdb-build: %v\n%s", err, out)
	}

	run := func(stdin string, args ...string) (string, int) {
		cmd := exec.Command(queryBin, args...)
		cmd.Stdin = strings.NewReader(stdin)
		out, err := cmd.Output()
		code := 0
		if err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("hopdb-query %v: %v", args, err)
			}
			code = ee.ExitCode()
		}
		return string(out), code
	}

	// All reachable: exit 0.
	if out, code := run("0 2\n1 2\n", "-idx", idxPath); code != 0 || out != "0 2 2\n1 2 1\n" {
		t.Errorf("reachable run = code %d, output %q", code, out)
	}
	// Explicit "-q -" stdin convention behaves identically.
	if out, code := run("0 2\n", "-idx", idxPath, "-q", "-"); code != 0 || out != "0 2 2\n" {
		t.Errorf(`-q - run = code %d, output %q`, code, out)
	}
	// An unreachable pair still answers but exits 1.
	if out, code := run("0 2\n0 4\n", "-idx", idxPath); code != 1 || !strings.Contains(out, "0 4 unreachable") {
		t.Errorf("unreachable run = code %d, output %q, want code 1", code, out)
	}
	// Malformed input is reported, remaining queries still answer, exit 3.
	if out, code := run("not a pair\n0 1\n", "-idx", idxPath); code != 3 || !strings.Contains(out, "0 1 1") {
		t.Errorf("bad-input run = code %d, output %q, want code 3", code, out)
	}
	// Bad input outranks unreachable.
	if _, code := run("garbage\n0 4\n", "-idx", idxPath); code != 3 {
		t.Errorf("bad-input+unreachable run = code %d, want 3", code)
	}
	// A query file that does not exist is a runtime failure, not silence.
	if _, code := run("", "-idx", idxPath, "-q", filepath.Join(dir, "missing.txt")); code != 3 {
		t.Errorf("missing query file = code %d, want 3", code)
	}
	// Usage errors keep the conventional exit 2.
	if _, code := run("", "-idx", idxPath, "-disk", idxPath); code != 2 {
		t.Errorf("conflicting flags = code %d, want 2", code)
	}
}

// TestUpdateCLI drives hopdb-update end to end: build an index for a
// path graph, apply a delta that short-circuits it and severs one link,
// and verify the patched index answers the mutated graph.
func TestUpdateCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI update test builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	buildBin := buildTool(t, dir, "hopdb-build")
	updateBin := buildTool(t, dir, "hopdb-update")
	queryBin := buildTool(t, dir, "hopdb-query")

	// Path 0-1-2-3-4.
	graphPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(graphPath, []byte("0 1\n1 2\n2 3\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "g.idx")
	if out, err := exec.Command(buildBin, "-in", graphPath, "-o", idxPath).CombinedOutput(); err != nil {
		t.Fatalf("hopdb-build: %v\n%s", err, out)
	}

	deltaPath := filepath.Join(dir, "delta.txt")
	delta := "# shortcut, then sever the middle\n+ 0 4\n- 1 2\n"
	if err := os.WriteFile(deltaPath, []byte(delta), 0o644); err != nil {
		t.Fatal(err)
	}
	patched := filepath.Join(dir, "patched.idx")
	patchedGraph := filepath.Join(dir, "patched.txt")
	out, err := exec.Command(updateBin, "-idx", idxPath, "-graph", graphPath,
		"-delta", deltaPath, "-o", patched, "-out-graph", patchedGraph).CombinedOutput()
	if err != nil {
		t.Fatalf("hopdb-update: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "applied 2 ops") || !strings.Contains(string(out), "1 inserts, 1 deletes") ||
		!strings.Contains(string(out), "overlay ") || !strings.Contains(string(out), " compactions") {
		t.Errorf("update output unexpected:\n%s", out)
	}

	// Patched graph: 0-1, 0-4, 2-3, 3-4. d(0,4)=1, d(1,2)=4 (1-0-4-3-2),
	// d(0,3)=2.
	cmd := exec.Command(queryBin, "-idx", patched)
	cmd.Stdin = strings.NewReader("0 4\n1 2\n0 3\n")
	qout, err := cmd.Output()
	if err != nil {
		t.Fatalf("hopdb-query on patched index: %v", err)
	}
	want := "0 4 1\n1 2 4\n0 3 2\n"
	if string(qout) != want {
		t.Errorf("patched answers = %q, want %q", qout, want)
	}

	// The emitted mutated edge list must rebuild to the same answers.
	idx2 := filepath.Join(dir, "rebuilt.idx")
	if out, err := exec.Command(buildBin, "-in", patchedGraph, "-o", idx2).CombinedOutput(); err != nil {
		t.Fatalf("hopdb-build on mutated graph: %v\n%s", err, out)
	}
	cmd = exec.Command(queryBin, "-idx", idx2)
	cmd.Stdin = strings.NewReader("0 4\n1 2\n0 3\n")
	qout2, err := cmd.Output()
	if err != nil {
		t.Fatalf("hopdb-query on rebuilt index: %v", err)
	}
	if string(qout2) != string(qout) {
		t.Errorf("patched and rebuilt answers differ: %q vs %q", qout, qout2)
	}

	// A malformed delta exits 3.
	if err := os.WriteFile(deltaPath, []byte("* 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = exec.Command(updateBin, "-idx", idxPath, "-graph", graphPath,
		"-delta", deltaPath, "-o", patched).Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Errorf("malformed delta: %v, want exit 3", err)
	}
	// Missing required flags exit 2.
	err = exec.Command(updateBin, "-idx", idxPath).Run()
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("missing flags: %v, want exit 2", err)
	}
}

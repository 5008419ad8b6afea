// Package leakgate is the package-exit check of the test suites that run
// rank processes, engine goroutines and snapshot stores: once every test
// of a package has run, nothing the tests started may still be alive. A
// test that passes while a rank it spawned lives on, or a store it made
// stays on disk, fails the package here.
package leakgate

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle bounds how long Run waits for the last goroutines and processes
// of a package's tests to wind down before it calls them leaked.
const settle = 10 * time.Second

// Run runs m's tests in a private TMPDIR and returns their exit code, or
// 1 when they passed but left something behind: a goroutine that was not
// running before the first test (its stack is printed), a live or
// unreaped child process, or a golts-snap-* snapshot store in TMPDIR.
// The TMPDIR is private — a fresh directory under the caller's — because
// go test runs packages side by side and each may have stores open; it
// is removed on return. Spawned rank processes inherit it.
//
// A TestMain that re-executes the test binary as a rank process calls
// its RankMain first, then os.Exit(leakgate.Run(m)).
func Run(m *testing.M) int {
	dir, err := os.MkdirTemp("", "golts-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakgate:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if err := os.Setenv("TMPDIR", dir); err != nil {
		fmt.Fprintln(os.Stderr, "leakgate:", err)
		return 1
	}
	before := goroutines()
	code := m.Run()

	var left, stacks []string
	for deadline := time.Now().Add(settle); ; time.Sleep(20 * time.Millisecond) {
		left, stacks = leftovers(before, dir)
		if len(left) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(left) == 0 {
		return code
	}
	fmt.Fprintf(os.Stderr, "leakgate: the tests left behind, %v after the last one:\n", settle)
	for _, l := range left {
		fmt.Fprintln(os.Stderr, "  -", l)
	}
	for _, s := range stacks {
		fmt.Fprintf(os.Stderr, "\n%s\n", s)
	}
	return 1
}

// leftovers lists what is still alive — goroutines not in before,
// children of this process and snapshot stores in dir — and the stacks
// of those goroutines.
func leftovers(before map[string]string, dir string) (left, stacks []string) {
	for id, s := range goroutines() {
		if _, ok := before[id]; !ok {
			stacks = append(stacks, s)
		}
	}
	if len(stacks) > 0 {
		left = append(left, fmt.Sprintf("%d goroutines started by the tests", len(stacks)))
	}
	if kids := children(); len(kids) > 0 {
		left = append(left, "child processes "+strings.Join(kids, " "))
	}
	stores, _ := filepath.Glob(filepath.Join(dir, "golts-snap-*"))
	for _, s := range stores {
		left = append(left, "snapshot store "+s)
	}
	return left, stacks
}

// goroutines returns the stack of every running goroutine by its id,
// leaving out os/signal's loop: signal.Notify starts it once per process
// and it never returns, so a test binary that watches for ^C (go test
// -fuzz does, in the coordinator and in every worker) holds it to the
// end without having leaked anything.
func goroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	all := make(map[string]string)
	for _, s := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(s, "\nos/signal.loop()") {
			continue
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(s, "goroutine "), " ")
		all[id] = s
	}
	return all
}

// children lists the pids of this process's children, zombies included,
// from every thread's /proc children file (empty where /proc has none).
func children() []string {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var pids []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err == nil {
			pids = append(pids, strings.Fields(string(raw))...)
		}
	}
	return pids
}

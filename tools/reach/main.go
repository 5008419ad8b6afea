// Command reach is the reachability gate over the product: every
// non-test function of module golts must be linked by one of its
// binaries (cmd/*, examples/*, the benchmark harness, or a generated
// root over the exported API of wave), or be named, with a reason, on
// the allow-list allow.txt next to this file.
//
// It builds each binary with -gcflags=all=-l, so that nothing is
// inlined away, lists its text symbols with go tool nm, and diffs them
// against the func declarations go/ast finds. It prints what it finds
// and exits 1 on an unlinked function that is not allow-listed and on
// an allow-list entry whose function is gone or now linked.
//
// Run it from this directory (make reach does): go run .
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	root, err := moduleRoot()
	if err == nil {
		err = gate(root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func gate(root string) error {
	allow, err := readAllow(root)
	if err != nil {
		return err
	}
	res, err := Analyse(root, nil)
	if err != nil {
		return err
	}
	lines := 0
	for _, fn := range res.Unlinked() {
		lines += fn.Lines
	}
	fmt.Printf("reach: %d functions, %d binaries (%s)\n", len(res.Funcs), len(res.Binaries), strings.Join(res.Binaries, ", "))
	fmt.Printf("reach: %d unlinked (%d lines), %d allow-listed\n", len(res.Unlinked()), lines, len(allow))
	why := map[string]string{}
	for _, a := range allow {
		why[a.Key] = a.Reason
	}
	for _, fn := range res.Unlinked() {
		if r, ok := why[fn.Key]; ok {
			fmt.Printf("  allowed %s (%s:%d, %d lines): %s\n", fn.Key, fn.File, fn.Line, fn.Lines, r)
		}
	}
	fails := Gate(res, allow)
	for _, l := range fails {
		fmt.Println("  FAIL", l)
	}
	if len(fails) > 0 {
		return fmt.Errorf("%d failures", len(fails))
	}
	fmt.Println("reach: ok")
	return nil
}

// moduleRoot walks up from the working directory to the directory whose
// go.mod declares the product module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module "+modulePath+"\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module %s above the working directory", modulePath)
		}
		dir = parent
	}
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Allow is one allow-list entry: a function kept although no binary
// links it, and why.
type Allow struct {
	Key    string
	Reason string
	Line   int
}

// ParseAllow reads an allow-list: one "key reason..." per line, blank
// lines and #-comments ignored. Every entry needs a reason and may
// appear once.
func ParseAllow(r io.Reader) ([]Allow, error) {
	var out []Allow
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			return nil, fmt.Errorf("allow-list line %d: %s has no reason", n, key)
		}
		if seen[key] {
			return nil, fmt.Errorf("allow-list line %d: %s listed twice", n, key)
		}
		seen[key] = true
		out = append(out, Allow{Key: key, Reason: reason, Line: n})
	}
	return out, sc.Err()
}

// readAllow reads the committed allow-list of the module at root.
func readAllow(root string) ([]Allow, error) {
	f, err := os.Open(filepath.Join(root, "tools", "reach", "allow.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseAllow(f)
}

// Gate reports, one line each, every unlinked function the allow-list
// does not name, and every allow-list entry that names a function that
// no longer exists or that a binary now links. No lines means the gate
// passes.
func Gate(res *Result, allow []Allow) []string {
	allowed := map[string]bool{}
	for _, a := range allow {
		allowed[a.Key] = true
	}
	exists := map[string]bool{}
	for _, f := range res.Funcs {
		exists[f.Key] = true
	}
	var fails []string
	for _, f := range res.Unlinked() {
		if !allowed[f.Key] {
			fails = append(fails, fmt.Sprintf("unlinked: %s (%s:%d, %d lines): delete it, move it into a test file, or allow-list it with a reason", f.Key, f.File, f.Line, f.Lines))
		}
	}
	for _, a := range allow {
		switch {
		case !exists[a.Key]:
			fails = append(fails, fmt.Sprintf("stale allow-list entry (line %d): %s: no such function", a.Line, a.Key))
		case res.Linked[a.Key]:
			fails = append(fails, fmt.Sprintf("stale allow-list entry (line %d): %s: now linked", a.Line, a.Key))
		}
	}
	return fails
}

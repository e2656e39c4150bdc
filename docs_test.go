package tnkd

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// mdLink matches an inline markdown link and captures its target.
	mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// mdFence matches a fenced code block: shell snippets legitimately
	// contain [x](y)-shaped strings that are not links.
	mdFence = regexp.MustCompile("(?s)```.*?```")
	// flagRow matches a README flag-table row and captures its flag.
	flagRow = regexp.MustCompile("(?m)^\\| `(-[a-z-]+)`")
)

// TestDocLinks: every relative link in the four project documents
// resolves to a file or directory of the repository. External links,
// mail links and in-page anchors are not checked.
func TestDocLinks(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		body := mdFence.ReplaceAllString(string(text), "")
		for _, m := range mdLink.FindAllStringSubmatch(body, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			path, _, _ := strings.Cut(target, "#")
			if path == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(doc), path)); err != nil {
				t.Errorf("%s: broken relative link -> %s", doc, target)
			}
		}
	}
}

// TestDocFlags: every `-flag` a README flag table documents is a real
// flag of some binary under cmd/, i.e. appears as an "  -flag" line of
// that binary's -help output (stale docs fail here).
func TestDocFlags(t *testing.T) {
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	var help []string
	for _, e := range entries {
		// -help exits non-zero on some binaries; only the text matters.
		out, _ := exec.Command(filepath.Join(bin, e.Name()), "-help").CombinedOutput()
		help = append(help, string(out))
	}
	seen := map[string]bool{}
	for _, m := range flagRow.FindAllStringSubmatch(string(text), -1) {
		flag := m[1]
		if seen[flag] {
			continue
		}
		seen[flag] = true
		line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(flag) + `\b`)
		found := false
		for _, h := range help {
			if line.MatchString(h) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("README documents flag %s but no binary exposes it", flag)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no flag-table rows found in README.md")
	}
}

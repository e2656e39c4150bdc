package tnkd

import (
	"os"
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

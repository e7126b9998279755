package launchmon_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// The written account has budgets, as the code has its architecture rules
// (DESIGN.md "Rules held by tests"): each design document fits in 100 KB,
// and a change log entry says what a change did in at most 2 500
// characters, from the entry that set the rule on.
const (
	docBudgetBytes     = 100_000
	changeBudgetRunes  = 2_500
	changeBudgetFromPR = 25
)

// TestDocBudgets holds DESIGN.md and EXPERIMENTS.md under their byte budget
// and every CHANGES.md entry from PR 25 on under its character budget.
func TestDocBudgets(t *testing.T) {
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() >= docBudgetBytes {
			t.Errorf("%s is %d B, budget < %d B: fold history into the Decisions table or the Recorded appendix", name, fi.Size(), docBudgetBytes)
		}
	}
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`(?m)^- PR (\d+)`)
	starts := entry.FindAllStringSubmatchIndex(string(raw), -1)
	if len(starts) == 0 {
		t.Fatal("CHANGES.md has no `- PR N` entries")
	}
	for i, m := range starts {
		end := len(raw)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		pr, _ := strconv.Atoi(string(raw[m[2]:m[3]]))
		text := strings.TrimSpace(string(raw[m[0]:end]))
		if n := utf8.RuneCountInString(text); pr >= changeBudgetFromPR && n > changeBudgetRunes {
			t.Errorf("CHANGES.md entry of PR %d is %d characters, budget %d: move its numbers to EXPERIMENTS.md", pr, n, changeBudgetRunes)
		}
	}
}

// docCitation matches a section cited by its quoted name: the document, one
// or more blanks (a line break included), and the name in double quotes.
var docCitation = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md\s+"([^"]+)"`)

// goCommentBreak is a line break inside a Go comment, with the next line's
// comment marker, so that a citation wrapped across lines reads whole.
var goCommentBreak = regexp.MustCompile(`\s*\n\s*//\s*`)

// TestDocSectionsResolve checks that every section a Go comment (outside
// benchmark/) or a living document cites by quoted name exists: the name
// must begin a heading, or the bold label that opens a paragraph, list item
// or table row, of the document it names.
func TestDocSectionsResolve(t *testing.T) {
	labels := map[string][]string{}
	for _, doc := range []string{"DESIGN", "EXPERIMENTS"} {
		raw, err := os.ReadFile(doc + ".md")
		if err != nil {
			t.Fatal(err)
		}
		labels[doc] = sectionLabels(string(raw))
	}
	citers := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
	for _, root := range []string{".", "internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && root == "." && path != "." {
				return fs.SkipDir
			}
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				citers = append(citers, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cited := 0
	for _, path := range citers {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if strings.HasSuffix(path, ".go") {
			text = goCommentBreak.ReplaceAllString(text, " ")
		}
		for _, m := range docCitation.FindAllStringSubmatch(text, -1) {
			name := strings.Join(strings.Fields(m[2]), " ")
			cited++
			if !resolves(name, labels[m[1]]) {
				t.Errorf("%s cites %s.md %q, which begins no heading or bold label there", filepath.ToSlash(path), m[1], name)
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no quoted section citations: the pattern no longer matches the docs")
	}
}

// sectionLabels returns a markdown document's headings and bold labels,
// outside code fences.
func sectionLabels(doc string) []string {
	var out []string
	fence := false
	for _, line := range strings.Split(doc, "\n") {
		s := strings.TrimSpace(line)
		if strings.HasPrefix(s, "```") || strings.HasPrefix(s, "~~~") {
			fence = !fence
			continue
		}
		if fence {
			continue
		}
		if h := strings.TrimLeft(s, "#"); len(h) < len(s) && strings.HasPrefix(h, " ") {
			out = append(out, strings.TrimSpace(h))
			continue
		}
		for _, marker := range []string{"- ", "* ", "| "} {
			s = strings.TrimSpace(strings.TrimPrefix(s, marker))
		}
		if rest, ok := strings.CutPrefix(s, "**"); ok {
			if label, _, ok := strings.Cut(rest, "**"); ok {
				out = append(out, label)
			}
		}
	}
	return out
}

// resolves reports whether name begins one of labels at a word boundary.
func resolves(name string, labels []string) bool {
	for _, l := range labels {
		if rest, ok := strings.CutPrefix(l, name); ok {
			if r, _ := utf8.DecodeRuneInString(rest); rest == "" || !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				return true
			}
		}
	}
	return false
}

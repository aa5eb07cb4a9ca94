package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/workload"
)

// nonFinite matches the renderings fmt produces for NaN/±Inf.
var nonFinite = regexp.MustCompile(`NaN|[+-]?Inf`)

// TestEveryFigRendersFinite is the figure-plumbing smoke test: every -fig
// id must render at ScaleTiny without panicking and without a NaN/Inf
// anywhere in its output. One runner is shared so the two suites simulate
// once.
func TestEveryFigRendersFinite(t *testing.T) {
	figs := []string{"table4.1", "5.1a", "5.1b", "5.2a", "5.2b", "5.3", "5.4", "5.5", "5.6", "5.7", "5.8"}
	var out bytes.Buffer
	r := &runner{scale: workload.ScaleTiny, out: &out}
	for _, fig := range figs {
		out.Reset()
		if err := r.run(fig); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		if out.Len() == 0 {
			t.Fatalf("-fig %s: empty render", fig)
		}
		if loc := nonFinite.FindString(out.String()); loc != "" {
			line := ""
			for _, l := range strings.Split(out.String(), "\n") {
				if nonFinite.MatchString(l) {
					line = l
					break
				}
			}
			t.Fatalf("-fig %s: non-finite value %q in output line %q", fig, loc, line)
		}
	}
}

// TestUnknownFigErrors keeps the CLI's error path honest.
func TestUnknownFigErrors(t *testing.T) {
	var out bytes.Buffer
	r := &runner{scale: workload.ScaleTiny, out: &out}
	if err := r.run("9.9"); err == nil {
		t.Fatal("unknown figure id accepted")
	}
}

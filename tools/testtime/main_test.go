package main

import (
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	in := `{"Time":"2026-01-01T00:00:00Z","Action":"start","Package":"a"}
# a build line
{"Time":"2026-01-01T00:00:01Z","Action":"fail","Package":"a","Test":"TestX","Elapsed":0.5}
{"Time":"2026-01-01T00:00:02Z","Action":"fail","Package":"a","Elapsed":1.5}
{"Time":"2026-01-01T00:00:03Z","Action":"skip","Package":"b","Elapsed":0}
{"Time":"2026-01-01T00:00:04Z","Action":"pass","Package":"c","Elapsed":3.25}
`
	pkgs, wall, err := summarize(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if wall != 4*time.Second {
		t.Errorf("wall %v, want 4s", wall)
	}
	if len(pkgs) != 3 {
		t.Fatalf("got %d packages, want 3", len(pkgs))
	}
	a, c := pkgs[0], pkgs[2]
	if a.name != "a" || a.action != "fail" || a.elapsed != 1.5 || len(a.failed) != 1 || a.failed[0] != "TestX" {
		t.Errorf("package a: %+v", a)
	}
	if c.name != "c" || c.action != "pass" || c.elapsed != 3.25 {
		t.Errorf("package c: %+v", c)
	}
}

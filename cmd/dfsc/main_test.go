package main

import (
	"strings"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/workload"
)

// TestCheckPatternFiles: a pattern whose files all lie in the catalog
// passes, and the first request past its end fails, naming -files, so a
// replay stops before it sends anything rather than panicking mid-run.
func TestCheckPatternFiles(t *testing.T) {
	p := &workload.Pattern{Requests: []workload.Request{
		{AtSec: 1, File: 0}, {AtSec: 2, File: 19}, {AtSec: 3, File: 20}, {AtSec: 4, File: 999},
	}}
	if err := checkPatternFiles(p, 1000); err != nil {
		t.Fatalf("pattern within a 1000-file catalog: %v", err)
	}
	err := checkPatternFiles(p, 20)
	if err == nil {
		t.Fatal("file 20 of a 20-file catalog passed")
	}
	if !strings.Contains(err.Error(), "request 2") || !strings.Contains(err.Error(), "-files") {
		t.Fatalf("error %q names neither the first request past the catalog nor -files", err)
	}
	p.Requests = []workload.Request{{File: ids.FileID(-1)}}
	if checkPatternFiles(p, 20) == nil {
		t.Fatal("negative file id passed")
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every timestamp the benchmark takes.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. parent is the index of the enclosing
// span in the same buffer, -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
}

// spanBuf keeps one goroutine's spans in memory until the run ends. It
// holds at most maxSpans; later spans are counted as dropped.
type spanBuf struct {
	workload string
	spans    []span
	dropped  int
}

const maxSpans = 1 << 15

// traceEvery samples one client window in this many for spans, and the
// periodic reads at the same rate in time, which keeps a traced run's
// span file to a few MiB.
const traceEvery = 1024

// Span ids below zero: noSpan is a root's parent, dropped marks a span
// not recorded because the buffer was full (its children are dropped
// too).
const (
	noSpan  = -1
	dropped = -2
)

// open starts a span and returns its index. A nil buffer records
// nothing.
func (b *spanBuf) open(name string, parent int32) int32 {
	if b == nil {
		return noSpan
	}
	if len(b.spans) == maxSpans || parent == dropped {
		b.dropped++
		return dropped
	}
	b.spans = append(b.spans, span{name: name, start: now(), parent: parent})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(id int32) {
	if b != nil && id >= 0 {
		b.spans[id].end = now()
	}
}

// spanRow is one line of the span file.
type spanRow struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// writeSpans writes every buffer's spans as JSON lines, renumbering ids
// so they are unique in the file, and returns the file's path.
func writeSpans(dir, name string, bufs []*spanBuf) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, b := range bufs {
		for i, s := range b.spans {
			p := -1
			if s.parent >= 0 {
				p = base + int(s.parent)
			}
			row := spanRow{ID: base + i, Name: s.name, StartNs: s.start, EndNs: s.end, Parent: p, Workload: b.workload}
			if err := enc.Encode(&row); err != nil {
				f.Close()
				return "", err
			}
		}
		base += len(b.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

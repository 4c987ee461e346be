package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanLog records benchmark-side spans around every public call a
// workload makes into the program. Spans stay in memory until write.
// A nil *spanLog records nothing, so the untraced path pays one nil
// check per call.
type spanLog struct {
	origin time.Time
	spans  []span
	// total accumulates closed spans' wall time by name, so per-layer
	// figures need no second pass.
	total map[string]time.Duration
}

// span is one recorded call. Parent is the id of the enclosing span (0
// for a root); Op identifies the op within its batch, or the page.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Op     uint64        `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), total: map[string]time.Duration{}}
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent int, op uint64) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Op: op, Start: time.Since(l.origin)})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.End = time.Since(l.origin)
	l.total[s.Name] += s.End - s.Start
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

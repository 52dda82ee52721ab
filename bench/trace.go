package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded around the harness's own calls into the kit — a
// layer's time here is only what can be seen from its exported entry
// points.  They stay in memory and are written out when the child
// exits.  Spans of one operation share Op; Parent is the index of the
// operation's own span, or -1.
type span struct {
	Name    string `json:"name"`
	Op      int64  `json:"op"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the recorder's memory; spans past it are counted, not
// kept.  At today's rates a 12 s traced phase records under
// half of this.
const maxSpans = 1 << 18

type tracer struct {
	on      atomic.Bool // read before mu, so an untraced unit pays no lock
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

// tr is nil on an untraced run, so every hook costs one nil check.
var tr *tracer

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: time.Since(t.epoch).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNs = now
	t.mu.Unlock()
}

// medianUs returns the median duration in microseconds of the closed
// spans with the given name.
func (t *tracer) medianUs(name string) float64 {
	var d []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.EndNs > 0 {
			d = append(d, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return median(d)
}

// write stores the spans as out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

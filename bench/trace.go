package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side of
// the layer's public seam. Times are nanoseconds since process start.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Epoch  int    `json:"epoch"` // -1 outside the epoch loop
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced slice's spans in memory until the slice ends. A
// nil recorder records nothing, which is how untraced slices run.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records one finished span and returns its id, for children to name
// as their parent.
func (r *recorder) add(name string, parent int32, epoch int, start, end time.Duration) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Epoch: epoch, Start: int64(start), End: int64(end)})
	return id
}

// begin opens a span that outlives the call, for end to close: the epoch
// loop's span has to exist before the spans of the epochs under it.
func (r *recorder) begin(name string) int32 {
	return r.add(name, 0, -1, since(), 0)
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = int64(since())
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent int32, epoch int, fn func()) time.Duration {
	start := since()
	fn()
	end := since()
	r.add(name, parent, epoch, start, end)
	return end - start
}

// selfTimes returns, per span name, the total time not covered by child
// spans: a layer's self time is its span minus what it spent in the layers
// it called.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make(map[int32]int64, len(r.spans))
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	self := make(map[string]time.Duration)
	for _, s := range r.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return self
}

// traceFile is what a traced slice writes at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Stamp    stamp              `json:"stamp"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(path, workload string, st stamp) error {
	self := make(map[string]float64)
	for name, d := range r.selfTimes() {
		self[name] = ms(d)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Stamp: st, SelfMs: self, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

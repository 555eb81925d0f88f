package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into the simulator. Spans of one job share Job; Parent links a call
// span to its rank's step span and a step span to the job's run span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int    `json:"job"`
	Rank   int    `json:"rank"` // -1 for job-level and probe spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory until the run ends.
type tracer struct {
	epoch time.Time
	host  *spanRec // job-level and probe spans
	ranks []*spanRec
	done  []span // spans of finished jobs and probes
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.host = &spanRec{epoch: t.epoch, rank: -1}
	return t
}

// spanRec records the spans of one rank (or the host) in one job. A nil
// *spanRec records nothing, so untraced jobs run the same code paths at
// the cost of a nil check.
type spanRec struct {
	epoch time.Time
	job   int
	rank  int
	seq   int64
	spans []span
}

func (r *spanRec) now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// id reserves a span id unique within the run: job, rank and sequence.
func (r *spanRec) id() int64 {
	if r == nil {
		return 0
	}
	r.seq++
	return int64(r.job)<<48 | int64(r.rank+1)<<32 | r.seq
}

// add records span id, started at start and ending now.
func (r *spanRec) add(id, parent int64, name string, start int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: r.job, Rank: r.rank, Name: name, Start: start, End: r.now()})
}

// beginJob prepares per-rank recorders for job number jobID.
func (t *tracer) beginJob(jobID, size int) {
	t.host.job = jobID
	t.ranks = make([]*spanRec, size)
	for i := range t.ranks {
		t.ranks[i] = &spanRec{epoch: t.epoch, job: jobID, rank: i}
	}
}

// endJob returns the job's spans, job-level ones included. With keep they
// are also kept for write; a run keeps only its first traced job, which
// bounds the size of the span file.
func (t *tracer) endJob(keep bool) []span {
	spans := t.host.spans
	for _, r := range t.ranks {
		spans = append(spans, r.spans...)
	}
	t.host.spans = nil
	t.ranks = nil
	if keep {
		t.done = append(t.done, spans...)
	}
	return spans
}

// probe records a probe call of the run as a host span.
func (t *tracer) probe(name string, f func() float64) float64 {
	h := t.host
	id, start := h.id(), h.now()
	v := f()
	h.add(id, 0, name, start)
	t.done = append(t.done, h.spans...)
	h.spans = h.spans[:0]
	return v
}

// write stores the run's spans as JSON at path.
func (t *tracer) write(path string, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Meta  any    `json:"meta"`
		Spans []span `json:"spans"`
	}{meta, t.done}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

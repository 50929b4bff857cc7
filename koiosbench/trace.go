package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent names the span that caused this one within the operation.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response size of a server span; EngineNS the engine's
	// own refine + post-processing time for a search.
	Bytes    int   `json:"bytes,omitempty"`
	EngineNS int64 `json:"engine_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay free of its cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.addSpan(span{Op: op, Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) addSpan(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times the server's handler for every request, naming the span by
// route and joining it to the client's operation through opHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if op == 0 {
			h.ServeHTTP(w, r) // warm-up and checks are not measured
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		name, parent := "server.write", "client.write"
		switch {
		case r.Method == http.MethodGet:
			name, parent = "server.get", "check"
		case r.URL.Path == "/v1/search":
			name, parent = "server.search", "client.search"
		}
		t.addSpan(span{Op: op, Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Bytes: cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	out := map[string][]span{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanMS is the mean duration of spans in milliseconds, 0 without spans.
func meanMS(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range spans {
		sum += s.dur()
	}
	return float64(sum) / float64(len(spans)) / 1e6
}

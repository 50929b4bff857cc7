package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	koios "repro"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/sets"
)

// The serving configuration is koios-server's defaults (k, α, partitions,
// verification workers, search pool, query timeout, similarity cache, seal
// threshold, segment limit, WAL fsync off) except for one background
// maintenance worker, so that compactions and checkpoints run through the
// coordinated scheduler whose counters the traced run reports.
const (
	topK        = 10
	alpha       = 0.8
	partitions  = 4
	verifyWork  = 4
	bgWorkers   = 1
	queryLimit  = 30 * time.Second
	opHeader    = "X-Bench-Op"
	readTimeout = 60 * time.Second
)

func registryConfig(vec func(string) ([]float32, bool)) collection.Config {
	return collection.Config{
		Build: func(dict *sets.Dictionary) index.NeighborSource { return index.NewDynamicExact(dict, vec) },
		Opts: core.Options{K: topK, Alpha: alpha, Partitions: partitions, Workers: verifyWork,
			ExactScores: true}.WithDefaults(),
		SegCfg:      segment.Config{SealThreshold: 256, MaxSegments: 4},
		Maintenance: collection.MaintenanceConfig{Workers: bgWorkers},
	}
}

// hit is one search result as the client sees it.
type hit struct {
	name     string
	score    float64
	verified bool
}

// reply is one answered search: its results and whatever engine counters
// the path it took exposes (hasMatching: the matching counters are known).
type reply struct {
	hits        []hit
	stats       core.Stats
	hasMatching bool
}

// served is the system under test as one set-up left it: either an HTTP
// server over a durable registry, or an in-memory koios library registry.
type served struct {
	dir string
	vec func(string) ([]float32, bool)

	reg    *collection.Registry
	srv    *http.Server
	done   chan error
	url    string
	client *http.Client

	lib *koios.Registry
	eng *koios.Engine

	tr *tracer
}

func (s *served) mgr() *segment.Manager { return s.reg.Default().Manager() }

// openRegistry opens (or seeds) the durable registry and starts the HTTP
// server in front of it on a loopback port.
func (s *served) openRegistry(seed []sets.Set) error {
	start := time.Now()
	reg, err := collection.OpenRegistry(s.dir, seed, registryConfig(s.vec))
	if err != nil {
		return fmt.Errorf("open registry: %w", err)
	}
	s.tr.add(0, "segment.open", "open", start, time.Now())
	s.reg = reg
	h := http.Handler(server.NewRegistry(reg, server.Config{K: topK, Alpha: alpha, Partitions: partitions,
		Workers: verifyWork, QueryTimeout: queryLimit}))
	if s.tr != nil {
		h = s.tr.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return err
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: readTimeout}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout: readTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
	return nil
}

// closeServing drains the HTTP server and closes the registry gracefully
// (a durable close checkpoints, so a reopen replays no WAL).
func (s *served) closeServing() error {
	var first error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		first = s.srv.Shutdown(ctx)
		cancel()
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
		s.client.CloseIdleConnections()
		s.srv = nil
	}
	if s.reg != nil {
		if err := s.reg.Close(); err != nil && first == nil {
			first = err
		}
		s.reg = nil
	}
	if s.lib != nil {
		if err := s.lib.Close(); err != nil && first == nil {
			first = err
		}
		s.lib = nil
	}
	return first
}

// errRefused marks an answer the benchmark counts as a failed operation:
// 429, 503, 504 or a transport error.
var errRefused = errors.New("refused")

func (s *served) post(ctx context.Context, op int64, path string, body any) ([]byte, int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	return s.do(ctx, op, http.MethodPost, path, buf)
}

func (s *served) do(ctx context.Context, op int64, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if s.tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errRefused, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("%w: %v", errRefused, err)
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return nil, resp.StatusCode, fmt.Errorf("%w: %s %s: %d", errRefused, method, path, resp.StatusCode)
	}
	return data, resp.StatusCode, nil
}

// searchHTTP sends one query through the server's handler stack.
func (s *served) searchHTTP(ctx context.Context, op int64, q []string) (reply, error) {
	data, code, err := s.post(ctx, op, "/v1/search", server.SearchRequest{Query: q, K: topK})
	if err != nil {
		return reply{}, err
	}
	if code != http.StatusOK {
		return reply{}, fmt.Errorf("search: status %d: %s", code, data)
	}
	var resp server.SearchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return reply{}, fmt.Errorf("search: %w", err)
	}
	r := reply{hits: make([]hit, len(resp.Results))}
	for i, res := range resp.Results {
		r.hits[i] = hit{name: res.SetName, score: res.Score, verified: res.Verified}
	}
	st := resp.Stats
	r.stats = core.Stats{Candidates: st.Candidates, IUBPruned: st.IUBPruned, NoEM: st.NoEM,
		EMEarly: st.EMEarly, EMFull: st.EMFull, StreamTuples: st.StreamTuples,
		StreamRetrieved: st.StreamRetrieved, StreamCut: st.StreamCut,
		RefineTime: time.Duration(st.RefineUS) * time.Microsecond, PostprocTime: time.Duration(st.PostprocUS) * time.Microsecond,
		MemStreamBytes: st.MemoryBytes}
	return r, nil
}

// searchDirect calls the segment manager (HTTP workloads) or the library
// engine, bypassing the server.
func (s *served) searchDirect(ctx context.Context, q []string) (reply, error) {
	if s.eng != nil {
		res, st, err := s.eng.SearchContext(ctx, q)
		if err != nil {
			return reply{}, err
		}
		r := reply{stats: st, hasMatching: true, hits: make([]hit, len(res))}
		for i, x := range res {
			r.hits[i] = hit{name: x.SetName, score: x.Score, verified: x.Verified}
		}
		return r, nil
	}
	res, st, err := s.mgr().Search(ctx, q, topK)
	if err != nil {
		return reply{}, err
	}
	r := reply{stats: st, hasMatching: true, hits: make([]hit, len(res))}
	for i, x := range res {
		r.hits[i] = hit{name: x.Name, score: x.Score, verified: x.Verified}
	}
	return r, nil
}

// search is the path users hit: HTTP on the served workloads, the library
// otherwise.
func (s *served) search(ctx context.Context, op int64, q []string) (reply, error) {
	if s.eng != nil {
		return s.searchDirect(ctx, q)
	}
	return s.searchHTTP(ctx, op, q)
}

func (s *served) insertHTTP(ctx context.Context, op int64, name string, elems []string) error {
	data, code, err := s.post(ctx, op, "/v1/sets", server.InsertRequest{Name: name, Elements: elems})
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("insert %s: status %d: %s", name, code, data)
	}
	return nil
}

func (s *served) deleteHTTP(ctx context.Context, op int64, name string) error {
	data, code, err := s.do(ctx, op, http.MethodDelete, "/v1/sets/"+name, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("delete %s: status %d: %s", name, code, data)
	}
	return nil
}

// getSet reads one set over HTTP; ok=false on 404.
func (s *served) getSet(ctx context.Context, name string) ([]string, bool, error) {
	data, code, err := s.do(ctx, 0, http.MethodGet, "/v1/sets/"+name, nil)
	if err != nil {
		return nil, false, err
	}
	switch code {
	case http.StatusNotFound:
		return nil, false, nil
	case http.StatusOK:
		var resp server.SetResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, false, err
		}
		return resp.Elements, true, nil
	}
	return nil, false, fmt.Errorf("get %s: status %d: %s", name, code, data)
}

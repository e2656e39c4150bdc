// Package serve is the query daemon over persisted pattern stores —
// the "heavy traffic" leg of the ROADMAP: an HTTP/JSON API that
// answers pattern, support and occurrence queries from the embedding
// lists a mining run already computed and internal/store persisted,
// without ever re-running an isomorphism search.
//
// Endpoints (JSON):
//
//	GET  /healthz                            liveness
//	GET  /v1/stores                          mounted stores with meta,
//	                                         level directory and cache
//	                                         statistics
//	GET  /v1/levels                          per-store level listings
//	GET  /v1/levels/{edges}                  pattern summaries at one level
//	GET  /v1/patterns/{code}                 full pattern records for a code
//	POST /v1/patterns:batch                  full records for many codes in
//	                                         one round trip
//	GET  /v1/patterns/{code}/support         support counts + TID lists
//	GET  /v1/patterns/{code}/occurrences     embeddings decoded against the
//	                                         stored transactions (locations)
//	GET  /v1/locations/{label}/patterns      patterns occurring at a vertex
//	                                         label, counted from embeddings
//	POST /v1/admin/remount                   hot-swap a mounted store for a
//	                                         newer generation (see remount.go)
//
// Pattern codes are the miners' exact canonical codes (iso.Code):
// equal code means the same pattern, and an Algorithm 1 store keeps
// one record per repetition, so code-keyed endpoints return every
// matching record of that one pattern.
//
// Location queries are answered from a per-mount inverted index
// (vertex label -> patterns whose stored embeddings touch it) that
// every store persists at write time, so mounting one loads it
// straight from the footer — the first location query is a map hit,
// not a store scan. Every request's work therefore scales with its
// response, which is what lets ListenAndServe bound response writes.
//
// Mounted stores are immutable, but the set of mounts is not: a
// remount (POST /v1/admin/remount, or an in-process publisher such
// as ingest calling RemountAuto) atomically replaces one mount with
// a newer generation of the same lineage. Every request pins the mount snapshot it started on, the
// swap installs the new snapshot for subsequent requests, and the
// replaced reader is closed only after the pinned requests drain —
// no restart, no dropped request. Caches (the location index, the
// pattern-body LRU, marshaled location responses) hang off the
// snapshot machinery, so they never serve stale generations.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tnkd/internal/engine"
	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/obs"
	"tnkd/internal/store"
)

// Options configures a Server.
type Options struct {
	// Parallelism is the engine worker count for the per-request
	// record fan-out of batch and occurrence queries (<= 0 selects
	// GOMAXPROCS).
	Parallelism int
	// ShutdownGrace bounds how long ListenAndServe waits for in-
	// flight requests after its context is cancelled (0 = 5s).
	ShutdownGrace time.Duration
	// PatternCacheBytes bounds the per-mount LRU of marshaled
	// pattern-record bodies shared by the point and batch pattern
	// endpoints (0 = 8 MiB, < 0 disables the cache).
	PatternCacheBytes int
	// Metrics is the registry the server instruments into and the
	// GET /metrics endpoint renders (nil = obs.Default). Tests pass
	// their own registry for isolation.
	Metrics *obs.Registry
	// Logger receives the structured access log (one Info line per
	// request) and http.Server error noise (nil = discard).
	Logger *slog.Logger
}

// Mount is one named store served by a Server.
type Mount struct {
	// Name keys the store in responses (usually the file base name).
	Name string
	// Reader is the opened store.
	Reader *store.Reader
}

// mountEntry is one mounted store plus the caches whose lifetime it
// owns: the inverted location index and the marshaled-pattern LRU.
// Records are immutable for the life of the entry, so neither cache
// ever invalidates; a remount installs a fresh entry instead.
type mountEntry struct {
	m     Mount
	loc   locIndex
	cache *patternCache // nil when disabled
}

// state is one immutable snapshot of the mount table. Requests pin
// the snapshot they started on (wg); a remount installs a successor
// snapshot and closes replaced readers only after the pinned
// requests drain. locBody caches marshaled /v1/locations responses —
// those aggregate across mounts, so they hang off the snapshot, not
// an entry.
type state struct {
	entries []*mountEntry
	wg      sync.WaitGroup
	locBody sync.Map // label -> []byte
}

// Server answers queries over one or more mounted stores. It is safe
// for concurrent use, including concurrent remounts.
type Server struct {
	opts    Options
	metrics *obs.Registry
	logger  *slog.Logger

	// Per-route instrument sets, prebuilt in New so the middleware's
	// hot path is one map hit; unmatched catches 404/405 traffic.
	routes     map[string]*routeMetrics
	unmatched  *routeMetrics
	batchCodes *obs.Histogram

	mu  sync.RWMutex
	cur *state // nil after Close
}

// New builds a Server over the given mounts. Mount order is response
// order.
func New(mounts []Mount, opts Options) *Server {
	s := &Server{opts: opts, metrics: opts.Metrics, logger: opts.Logger}
	if s.metrics == nil {
		s.metrics = obs.Default
	}
	if s.logger == nil {
		s.logger = obs.Discard()
	}
	s.routes = make(map[string]*routeMetrics, len(routePatterns))
	for _, pat := range routePatterns {
		s.routes[pat] = newRouteMetrics(s.metrics, pat)
	}
	s.unmatched = newRouteMetrics(s.metrics, unmatchedRoute)
	s.batchCodes = s.metrics.Histogram("tnd_serve_batch_codes", obs.SizeBuckets)
	entries := make([]*mountEntry, len(mounts))
	for i, m := range mounts {
		entries[i] = s.newEntry(m)
	}
	s.cur = &state{entries: entries}
	return s
}

func (s *Server) newEntry(m Mount) *mountEntry {
	e := &mountEntry{m: m}
	capBytes := s.opts.PatternCacheBytes
	if capBytes == 0 {
		capBytes = defaultPatternCacheBytes
	}
	if capBytes > 0 {
		// Cache series are labeled by mount name, not generation, so
		// counters accumulate across remounts of the same mount.
		e.cache = newPatternCache(capBytes, cacheMetrics{
			hits:      s.metrics.Counter("tnd_serve_cache_hits_total", "mount", m.Name),
			misses:    s.metrics.Counter("tnd_serve_cache_misses_total", "mount", m.Name),
			evictions: s.metrics.Counter("tnd_serve_cache_evictions_total", "mount", m.Name),
			usedBytes: s.metrics.Gauge("tnd_serve_cache_used_bytes", "mount", m.Name),
			entries:   s.metrics.Gauge("tnd_serve_cache_entries", "mount", m.Name),
		})
	}
	return e
}

// acquire pins the current mount snapshot for one request. The Add
// happens under the read lock, so a remount's Lock-swap-Wait cannot
// miss it: every pinned request either drains before the old reader
// closes or runs entirely on the new snapshot.
func (s *Server) acquire() (*state, error) {
	s.mu.RLock()
	st := s.cur
	if st != nil {
		st.wg.Add(1)
	}
	s.mu.RUnlock()
	if st == nil {
		return nil, errors.New("serve: server closed")
	}
	return st, nil
}

// Close drains in-flight requests and closes every mounted reader.
// Subsequent requests answer 503.
func (s *Server) Close() error {
	s.mu.Lock()
	st := s.cur
	s.cur = nil
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	st.wg.Wait()
	var first error
	for _, e := range st.entries {
		if err := e.m.Reader.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Handler returns the routed HTTP handler, wrapped in the telemetry
// middleware (per-route metrics + access log). Registered patterns
// must stay in sync with routePatterns, which prebuilds the
// per-route instruments.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stores", s.pinned(s.handleStores))
	mux.HandleFunc("GET /v1/levels", s.pinned(s.handleLevels))
	mux.HandleFunc("GET /v1/levels/{edges}", s.pinned(s.handleLevel))
	mux.HandleFunc("GET /v1/patterns/{code}", s.pinned(s.handlePattern))
	mux.HandleFunc("POST /v1/patterns:batch", s.pinned(s.handleBatch))
	mux.HandleFunc("GET /v1/patterns/{code}/support", s.pinned(s.handleSupport))
	mux.HandleFunc("GET /v1/patterns/{code}/occurrences", s.pinned(s.handleOccurrences))
	mux.HandleFunc("GET /v1/locations/{label}/patterns", s.pinned(s.handleLocation))
	mux.HandleFunc("POST /v1/admin/remount", s.handleRemount)
	return s.instrument(mux)
}

// pinned adapts a snapshot-scoped handler: acquire the current
// state, release it when the response is written.
func (s *Server) pinned(h func(st *state, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, err := s.acquire()
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		defer st.wg.Done()
		h(st, w, r)
	}
}

// writeTimeout bounds how long one request may take from the end of
// its headers to the end of its response. No handler scans a store:
// each one's work scales with its response, which stays far below
// this bound. A client that stops reading, or a handler that stalls
// past it, loses the connection instead of holding it open.
const writeTimeout = 30 * time.Second

// readHeaderTimeout bounds how long the listener waits for a request's
// headers: a daemon facing slow or hostile clients must not hold a
// connection open for free. idleTimeout bounds how long a keep-alive
// connection may sit idle.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 120 * time.Second
)

// httpServer builds the listener-side server ListenAndServe runs.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		// Accept/TLS/panic noise goes through the structured logger
		// instead of the stdlib's default stderr formatting.
		ErrorLog: slog.NewLogLogger(s.logger.Handler(), slog.LevelError),
	}
}

// ListenAndServe serves until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests get
// ShutdownGrace to finish, and nil is returned for a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	// Request contexts deliberately do not derive from ctx: its
	// cancellation means "stop accepting and wind down", not "abort
	// in-flight work" — Shutdown's grace window governs those.
	srv := s.httpServer(addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	grace := s.opts.ShutdownGrace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// --- JSON shapes ---

// PatternSummaryJSON is the record-index view of a pattern (no
// record decode needed).
type PatternSummaryJSON struct {
	Store      string `json:"store"`
	Index      int    `json:"index"`
	Code       string `json:"code"`
	Edges      int    `json:"edges"`
	Support    int    `json:"support"`
	Embeddings int    `json:"embeddings"`
	Complete   bool   `json:"complete"`
	Overflowed bool   `json:"overflowed"`
}

// PatternJSON is one fully decoded pattern record.
type PatternJSON struct {
	PatternSummaryJSON
	Graph graph.JSON `json:"graph"`
	TIDs  []int      `json:"tids"`
}

// StoreJSON describes one mounted store.
type StoreJSON struct {
	Name         string            `json:"name"`
	Path         string            `json:"path"`
	Version      int               `json:"version"`
	Generation   int               `json:"generation"`
	Meta         store.Meta        `json:"meta"`
	Transactions int               `json:"transactions"`
	Patterns     int               `json:"patterns"`
	Levels       []store.LevelInfo `json:"levels"`
	// LocationIndex is always "persisted": /v1/locations is answered
	// from the index section every store carries.
	LocationIndex string `json:"location_index"`
	// Cache reports the pattern-body LRU; absent when disabled.
	Cache *CacheStatsJSON `json:"cache,omitempty"`
}

// LevelJSON is one per-store level-directory row.
type LevelJSON struct {
	Store    string `json:"store"`
	Edges    int    `json:"edges"`
	Patterns int    `json:"patterns"`
}

// SupportJSON answers a support query for one matching record.
type SupportJSON struct {
	Store   string `json:"store"`
	Index   int    `json:"index"`
	Code    string `json:"code"`
	Support int    `json:"support"`
	TIDs    []int  `json:"tids"`
}

// OccVertexJSON maps one pattern vertex into a transaction.
type OccVertexJSON struct {
	PatternVertex int    `json:"pattern_vertex"`
	Vertex        int    `json:"vertex"`
	Label         string `json:"label"`
}

// OccEdgeJSON maps one pattern edge into a transaction.
type OccEdgeJSON struct {
	PatternEdge int    `json:"pattern_edge"`
	Edge        int    `json:"edge"`
	From        int    `json:"from"`
	To          int    `json:"to"`
	Label       string `json:"label"`
}

// OccurrenceJSON is one decoded embedding.
type OccurrenceJSON struct {
	Vertices []OccVertexJSON `json:"vertices"`
	Edges    []OccEdgeJSON   `json:"edges"`
}

// TxnOccurrencesJSON groups a record's occurrences in one
// transaction.
type TxnOccurrencesJSON struct {
	TID         int              `json:"tid"`
	Transaction string           `json:"transaction,omitempty"`
	Occurrences []OccurrenceJSON `json:"occurrences"`
}

// RecordOccurrencesJSON is the occurrence listing of one matching
// record. Complete reports whether the stored lists are the full
// enumeration (overflowed records store warm-start seeds only, so
// their listing is a sample, not a proof of absence).
type RecordOccurrencesJSON struct {
	Store        string               `json:"store"`
	Index        int                  `json:"index"`
	Code         string               `json:"code"`
	Support      int                  `json:"support"`
	Complete     bool                 `json:"complete"`
	Transactions []TxnOccurrencesJSON `json:"transactions"`
}

// LocationPatternJSON is one pattern occurring at a queried location
// label.
type LocationPatternJSON struct {
	Store       string `json:"store"`
	Index       int    `json:"index"`
	Code        string `json:"code"`
	Edges       int    `json:"edges"`
	Support     int    `json:"support"`
	Occurrences int    `json:"occurrences"`
	TIDs        []int  `json:"tids"`
}

// LocationJSON answers a location query.
type LocationJSON struct {
	Label string `json:"label"`
	// Patterns occur at the label, ordered by descending occurrence
	// count then store order.
	Patterns []LocationPatternJSON `json:"patterns"`
	// PatternsWithoutEmbeddings counts records that could not be
	// checked because they store no embedding lists at all.
	PatternsWithoutEmbeddings int `json:"patterns_without_embeddings"`
}

// BatchResultJSON is one code's resolution in a batch response.
type BatchResultJSON struct {
	Code    string            `json:"code"`
	Matches []json.RawMessage `json:"matches"`
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not a server error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody caps the JSON body of every POST endpoint. A full
// batch of maxBatchCodes codes of about 135 bytes (the longest code in
// the stores CI mines) is about 140 KiB with its JSON framing; the cap
// leaves room for stores with longer codes while refusing clients that
// stream an unbounded body into the decoder.
const maxRequestBody = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most
// maxRequestBody bytes. It answers 413 for a larger body and 400 for
// malformed JSON, and reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%s request body exceeds the %d-byte limit", what, tooLarge.Limit)
	default:
		writeError(w, http.StatusBadRequest, "invalid %s request: %v", what, err)
	}
	return false
}

// --- handlers ---

func (s *Server) handleStores(st *state, w http.ResponseWriter, r *http.Request) {
	out := make([]StoreJSON, 0, len(st.entries))
	for _, e := range st.entries {
		rd := e.m.Reader
		sj := StoreJSON{
			Name:          e.m.Name,
			Path:          rd.Path(),
			Version:       store.FormatVersion,
			Generation:    rd.Meta().Generation,
			Meta:          rd.Meta(),
			Transactions:  rd.NumTransactions(),
			Patterns:      rd.NumPatterns(),
			Levels:        rd.Levels(),
			LocationIndex: "persisted",
		}
		if e.cache != nil {
			cs := e.cache.stats()
			sj.Cache = &cs
		}
		out = append(out, sj)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleLevels(st *state, w http.ResponseWriter, r *http.Request) {
	out := []LevelJSON{}
	for _, e := range st.entries {
		for _, lv := range e.m.Reader.Levels() {
			out = append(out, LevelJSON{Store: e.m.Name, Edges: lv.Edges, Patterns: lv.Patterns})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLevel lists the pattern summaries of one level across all
// mounts — index-only, no record decodes.
func (s *Server) handleLevel(st *state, w http.ResponseWriter, r *http.Request) {
	edges, err := strconv.Atoi(r.PathValue("edges"))
	if err != nil || edges < 1 {
		writeError(w, http.StatusBadRequest, "level must be a positive edge count, got %q", r.PathValue("edges"))
		return
	}
	out := []PatternSummaryJSON{}
	for _, e := range st.entries {
		start, end := e.m.Reader.LevelRange(edges)
		for i := start; i < end; i++ {
			out = append(out, summaryJSON(e.m.Name, e.m.Reader.Info(i)))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func summaryJSON(storeName string, info store.PatternInfo) PatternSummaryJSON {
	return PatternSummaryJSON{
		Store:      storeName,
		Index:      info.Index,
		Code:       info.Code,
		Edges:      info.Edges,
		Support:    info.Support,
		Embeddings: info.Embeddings,
		Complete:   info.HasEmbeddings,
		Overflowed: info.Overflowed,
	}
}

// match is one (mount, record) hit for a code.
type match struct {
	e     *mountEntry
	index int
}

func (st *state) findCode(code string) []match {
	var out []match
	for _, e := range st.entries {
		for _, i := range e.m.Reader.FindByCode(code) {
			out = append(out, match{e: e, index: i})
		}
	}
	return out
}

// patternBody returns the marshaled PatternJSON of one record,
// through the owning mount's LRU when enabled. Bodies are compact;
// the response encoder re-indents them uniformly.
func patternBody(mt match) (json.RawMessage, error) {
	if mt.e.cache != nil {
		if b, ok := mt.e.cache.get(mt.index); ok {
			return b, nil
		}
	}
	rd := mt.e.m.Reader
	p, err := rd.PatternLite(mt.index)
	if err != nil {
		return nil, fmt.Errorf("decode %s record %d: %w", mt.e.m.Name, mt.index, err)
	}
	body, err := json.Marshal(PatternJSON{
		PatternSummaryJSON: summaryJSON(mt.e.m.Name, rd.Info(mt.index)),
		Graph:              p.Graph.JSON(),
		TIDs:               p.TIDs.Slice(),
	})
	if err != nil {
		return nil, err
	}
	if mt.e.cache != nil {
		mt.e.cache.put(mt.index, body)
	}
	return body, nil
}

func (s *Server) handlePattern(st *state, w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	matches := st.findCode(code)
	if len(matches) == 0 {
		writeError(w, http.StatusNotFound, "no pattern with code %q", code)
		return
	}
	out := make([]json.RawMessage, 0, len(matches))
	for _, mt := range matches {
		body, err := patternBody(mt)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		out = append(out, body)
	}
	writeJSON(w, http.StatusOK, map[string]any{"code": code, "matches": out})
}

// maxBatchCodes bounds one batch request: enough for a full level
// fetch, small enough that a request can't pin a state forever.
const maxBatchCodes = 1024

// handleBatch resolves many codes in one request with one engine
// fan-out over every matching record. Unknown codes answer with an
// empty match list (the batch is a lookup, not an assertion); the
// per-record bodies come from the same per-mount LRU as the point
// endpoint, so a batch warms the cache for point queries and vice
// versa.
func (s *Server) handleBatch(st *state, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Codes []string `json:"codes"`
	}
	if !decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Codes) == 0 {
		writeError(w, http.StatusBadRequest, "codes must be a non-empty array")
		return
	}
	if len(req.Codes) > maxBatchCodes {
		writeError(w, http.StatusBadRequest, "batch of %d codes exceeds the %d-code limit", len(req.Codes), maxBatchCodes)
		return
	}
	s.batchCodes.Observe(float64(len(req.Codes)))
	type job struct {
		code int // index into req.Codes
		mt   match
	}
	var jobs []job
	for ci, code := range req.Codes {
		for _, mt := range st.findCode(code) {
			jobs = append(jobs, job{code: ci, mt: mt})
		}
	}
	bodies, err := engine.MapCtx(r.Context(), s.opts.Parallelism, len(jobs),
		func(ctx context.Context, i int) (json.RawMessage, error) {
			return patternBody(jobs[i].mt)
		})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	results := make([]BatchResultJSON, len(req.Codes))
	for i := range results {
		results[i] = BatchResultJSON{Code: req.Codes[i], Matches: []json.RawMessage{}}
	}
	for i, j := range jobs {
		results[j.code].Matches = append(results[j.code].Matches, bodies[i])
	}
	found := 0
	for i := range results {
		if len(results[i].Matches) > 0 {
			found++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"codes": len(req.Codes), "found": found, "results": results,
	})
}

func (s *Server) handleSupport(st *state, w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	matches := st.findCode(code)
	if len(matches) == 0 {
		writeError(w, http.StatusNotFound, "no pattern with code %q", code)
		return
	}
	out := make([]SupportJSON, 0, len(matches))
	maxSupport := 0
	for _, mt := range matches {
		p, err := mt.e.m.Reader.PatternLite(mt.index)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "decode %s record %d: %v", mt.e.m.Name, mt.index, err)
			return
		}
		if p.Support > maxSupport {
			maxSupport = p.Support
		}
		out = append(out, SupportJSON{
			Store: mt.e.m.Name, Index: mt.index, Code: p.Code,
			Support: p.Support, TIDs: p.TIDs.Slice(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"code": code, "max_support": maxSupport, "matches": out,
	})
}

func (s *Server) handleOccurrences(st *state, w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	limit := 0 // per-transaction occurrence cap; 0 = all
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", q)
			return
		}
		limit = v
	}
	matches := st.findCode(code)
	if len(matches) == 0 {
		writeError(w, http.StatusNotFound, "no pattern with code %q", code)
		return
	}
	// Occurrence decoding touches one transaction per TID — fan the
	// matches out on the engine pool (a structural store holds one
	// record per repetition).
	out, err := engine.MapCtx(r.Context(), s.opts.Parallelism, len(matches),
		func(ctx context.Context, i int) (RecordOccurrencesJSON, error) {
			return decodeOccurrences(ctx, matches[i], limit)
		})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"code": code, "matches": out})
}

func decodeOccurrences(ctx context.Context, mt match, limit int) (RecordOccurrencesJSON, error) {
	var zero RecordOccurrencesJSON
	rd := mt.e.m.Reader
	p, err := rd.Pattern(mt.index)
	if err != nil {
		return zero, err
	}
	out := RecordOccurrencesJSON{
		Store:        mt.e.m.Name,
		Index:        mt.index,
		Code:         p.Code,
		Support:      p.Support,
		Complete:     p.HasEmbeddings(),
		Transactions: []TxnOccurrencesJSON{},
	}
	for i, tid := range p.TIDs.All() {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		txn, err := rd.Transaction(tid)
		if err != nil {
			return zero, err
		}
		var list []OccurrenceJSON
		if p.Offsets != nil {
			embs := p.EmbsAt(i)
			if limit > 0 && embs.Len() > limit {
				embs = embs.Rows(0, limit)
			}
			list = make([]OccurrenceJSON, 0, embs.Len())
			for j := range embs.Len() {
				o, err := occurrenceJSON(txn, embs.At(j))
				if err != nil {
					return zero, fmt.Errorf("%s record %d tid %d: %w", mt.e.m.Name, mt.index, tid, err)
				}
				list = append(list, o)
			}
		}
		out.Transactions = append(out.Transactions, TxnOccurrencesJSON{
			TID: tid, Transaction: txn.Name, Occurrences: list,
		})
	}
	return out, nil
}

// occurrenceJSON decodes one embedding against its transaction. IDs
// are validated rather than trusted: a store is external input, and
// a record whose embeddings reference vertices or edges missing from
// the transaction must surface as a corrupt-store error, not a
// panic.
func occurrenceJSON(txn *graph.Graph, emb iso.DenseEmbedding) (OccurrenceJSON, error) {
	out := OccurrenceJSON{Vertices: []OccVertexJSON{}, Edges: []OccEdgeJSON{}}
	for pv, id := range emb.Verts {
		tv := graph.VertexID(id)
		if !txn.HasVertex(tv) {
			return out, fmt.Errorf("corrupt store: embedding references missing vertex %d in %s", tv, txn.Name)
		}
		out.Vertices = append(out.Vertices, OccVertexJSON{
			PatternVertex: pv, Vertex: int(tv), Label: txn.Vertex(tv).Label,
		})
	}
	for pe, id := range emb.Edges {
		te := graph.EdgeID(id)
		if !txn.HasEdge(te) {
			return out, fmt.Errorf("corrupt store: embedding references missing edge %d in %s", te, txn.Name)
		}
		ed := txn.Edge(te)
		out.Edges = append(out.Edges, OccEdgeJSON{
			PatternEdge: pe, Edge: int(te), From: int(ed.From), To: int(ed.To), Label: ed.Label,
		})
	}
	return out, nil
}

// locIndex is the memoized JSON view of one mount's persisted
// location index: for every vertex label touched by any stored
// embedding, the patterns occurring there in record order. A mount's
// records are immutable, so the view is built at most once
// (sync.Once) and never invalidated.
type locIndex struct {
	once    sync.Once
	byLabel map[string][]LocationPatternJSON
	noEmb   int // records with no stored embedding lists at all
}

// locationIndex returns a mount's inverted index, converting the
// store's persisted section on first use: a footer walk with no
// record decodes.
func (e *mountEntry) locationIndex() *locIndex {
	idx := &e.loc
	idx.once.Do(func() {
		rd := e.m.Reader
		byLabel, noEmb, _ := rd.LocationIndex()
		idx.noEmb = noEmb
		idx.byLabel = make(map[string][]LocationPatternJSON, len(byLabel))
		for label, hits := range byLabel {
			lps := make([]LocationPatternJSON, 0, len(hits))
			for _, h := range hits {
				info := rd.Info(h.Record)
				lps = append(lps, LocationPatternJSON{
					Store: e.m.Name, Index: h.Record, Code: info.Code,
					Edges: info.Edges, Support: info.Support,
					Occurrences: h.Occurrences, TIDs: h.TIDs.Slice(),
				})
			}
			idx.byLabel[label] = lps
		}
	})
	return idx
}

// handleLocation answers "which patterns occur at this location?"
// from the per-mount inverted index — a map hit (and, after the
// first query for a label, a cached pre-marshaled body) instead of
// the full-store scan this endpoint used to run per request.
func (s *Server) handleLocation(st *state, w http.ResponseWriter, r *http.Request) {
	label := r.PathValue("label")
	if body, ok := st.locBody.Load(label); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body.([]byte)) //nolint:errcheck // client gone is not a server error
		return
	}
	out := LocationJSON{Label: label, Patterns: []LocationPatternJSON{}}
	for _, e := range st.entries {
		idx := e.locationIndex()
		out.PatternsWithoutEmbeddings += idx.noEmb
		out.Patterns = append(out.Patterns, idx.byLabel[label]...)
	}
	sort.SliceStable(out.Patterns, func(i, j int) bool {
		return out.Patterns[i].Occurrences > out.Patterns[j].Occurrences
	})
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body = append(body, '\n') // match writeJSON's Encoder framing
	if len(out.Patterns) > 0 {
		// Only labels that exist get a cached body: empty responses
		// are cheap to recompute, and caching them would let probes
		// for made-up labels grow the cache without bound.
		st.locBody.Store(label, body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client gone is not a server error
}

package ingest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
)

// maxBatchBytes caps a batch in bytes: a POSTed body is refused with
// 413, a spool file is quarantined unread. Both are also limited in
// JSON values (maxBatchValues, checked by DecodeBatch).
const maxBatchBytes = 64 << 20

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/ingest          accept a batch into the spool (202)
//	GET  /v1/ingest/status   daemon health as JSON
//	GET  /metrics            Prometheus text format
//	GET  /healthz            liveness
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", d.handleIngest)
	mux.HandleFunc("GET /v1/ingest/status", d.handleStatus)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		d.opts.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleIngest validates the batch and stages it into the spool via a
// dotted temp name + rename, so the processing loop (and any other
// spool consumer) never sees a half-written file. The fold itself is
// asynchronous: 202, not 200. A client-supplied name that is already
// waiting in the spool is a 409 — silently renaming over a pending
// batch would discard it.
func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > maxBatchBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", maxBatchBytes)
		return
	}
	data, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(data) > maxBatchBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", maxBatchBytes)
		return
	}
	b, txns, err := DecodeBatch(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(txns) == 0 {
		httpError(w, http.StatusBadRequest, "ingest: batch has no transactions")
		return
	}
	d.mu.Lock()
	d.postSeq++
	seq := d.postSeq
	d.mu.Unlock()
	name := sanitizeBatchName(b.Name)
	if name == "" {
		name = fmt.Sprintf("b-%d-%04d.json", d.now().UnixNano(), seq)
	}
	final := d.path(spoolDir, name)
	tmp := d.path(spoolDir, fmt.Sprintf(".%s.%d.tmp", name, seq))
	if err := d.writeFileSync(tmp, data); err != nil {
		httpError(w, http.StatusInternalServerError, "stage batch: %v", err)
		return
	}
	// Commit under the lock so two same-named posts cannot both pass
	// the existence check: a client-supplied name must never rename
	// over a different batch still waiting in the spool.
	d.mu.Lock()
	if _, err := os.Stat(final); err == nil {
		d.mu.Unlock()
		d.fs.Remove(tmp) //nolint:errcheck // best-effort cleanup
		httpError(w, http.StatusConflict, "batch %q is already spooled; use a different name or omit it", name)
		return
	}
	err = d.fs.Rename(tmp, final)
	d.mu.Unlock()
	if err != nil {
		d.fs.Remove(tmp) //nolint:errcheck // best-effort cleanup
		httpError(w, http.StatusInternalServerError, "spool batch: %v", err)
		return
	}
	d.mBatchesReceived.Inc()
	d.logger.Info("ingest: batch spooled", "batch", name, "transactions", len(txns), "bytes", len(data))
	writeJSON(w, http.StatusAccepted, map[string]any{
		"batch":        name,
		"transactions": len(txns),
	})
}

// readBody reads a request body of at most maxBatchBytes+1 bytes. A
// declared Content-Length (already checked against the cap) sizes one
// buffer up front; a chunked body grows one as it arrives.
func readBody(r *http.Request) ([]byte, error) {
	if r.ContentLength < 0 {
		return io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	}
	data := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// sanitizeBatchName reduces a client-supplied name to a safe spool
// basename; anything that survives as a dotfile or temp name (which
// the spool scan would skip forever) is rejected to "".
func sanitizeBatchName(name string) string {
	name = filepath.Base(strings.TrimSpace(name))
	if name == "." || name == string(filepath.Separator) {
		return ""
	}
	if !eligibleBatchName(name) {
		return ""
	}
	if !strings.HasSuffix(name, ".json") {
		name += ".json"
	}
	return name
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Status())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

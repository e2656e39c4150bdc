package serve

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"tnkd/internal/obs"
	"tnkd/internal/store"
)

// ErrNoSuchStore reports a remount naming an unmounted store.
var ErrNoSuchStore = errors.New("serve: no such store")

// ErrProvenance reports a remount candidate whose lineage does not
// validate against the mounted store: its generation must strictly
// advance the current one, and it must descend from the same lineage
// (its recorded Parent is the mounted path, or it carries the same
// Kind and Name).
var ErrProvenance = errors.New("serve: remount provenance rejected")

// RemountResult reports one completed hot swap.
type RemountResult struct {
	Store         string `json:"store"`
	Path          string `json:"path"`
	OldGeneration int    `json:"old_generation"`
	NewGeneration int    `json:"new_generation"`
	// SwapMillis is the time from validation to the old reader being
	// fully drained and closed — the whole cutover, not just the
	// pointer flip (which is atomic and unmeasurably fast).
	SwapMillis float64 `json:"swap_ms"`
}

// validateLineage checks a candidate reader against the mounted one.
// The generation must strictly increase (PR 5's delta miner stamps
// Generation = parent+1), and the candidate must descend from the
// mounted lineage: its Meta.Parent names the mounted path (directly
// or by base name — tndingest stamps Parent relative to its -dir
// while its remount push sends absolute paths), or it carries the
// same Kind and Name.
func validateLineage(cur, cand *store.Reader) error {
	cm, nm := cur.Meta(), cand.Meta()
	if nm.Generation <= cm.Generation {
		return fmt.Errorf("%w: candidate generation %d does not advance mounted generation %d",
			ErrProvenance, nm.Generation, cm.Generation)
	}
	if nm.Parent == cur.Path() ||
		(nm.Parent != "" && filepath.Base(nm.Parent) == filepath.Base(cur.Path())) {
		return nil
	}
	if nm.Kind == cm.Kind && nm.Name == cm.Name && nm.Name != "" {
		return nil
	}
	return fmt.Errorf("%w: candidate parent %q matches neither mounted path %q nor mounted kind/name %q/%q",
		ErrProvenance, nm.Parent, cur.Path(), cm.Kind, cm.Name)
}

// Remount hot-swaps the named mount for the store at path. The
// candidate is opened and its provenance validated (ErrProvenance on
// generation or lineage mismatch); then the mount table flips
// atomically — requests already running finish against the old
// reader, every later request sees the new one — and the old reader
// is closed only after those in-flight requests drain. No request is
// dropped at any point.
func (s *Server) Remount(name, path string) (RemountResult, error) {
	rd, err := store.Open(path)
	if err != nil {
		s.remountFailed(name, path, remountFailOpen, err)
		return RemountResult{}, fmt.Errorf("serve: open remount candidate: %w", err)
	}
	res, err := s.remountReader(name, rd)
	if err != nil {
		rd.Close() //nolint:errcheck // already failing
	}
	return res, err
}

// RemountAuto is Remount without a mount name: the candidate at path
// is matched against every mount's lineage and swaps in for the
// first one that validates. This is the path-only entry point used
// by ingest's remount push and by the admin endpoint when the body
// names no store.
func (s *Server) RemountAuto(path string) (RemountResult, error) {
	rd, err := store.Open(path)
	if err != nil {
		s.remountFailed("", path, remountFailOpen, err)
		return RemountResult{}, fmt.Errorf("serve: open remount candidate: %w", err)
	}
	s.mu.RLock()
	st := s.cur
	s.mu.RUnlock()
	if st == nil {
		rd.Close() //nolint:errcheck
		return RemountResult{}, errors.New("serve: server closed")
	}
	name := ""
	for _, e := range st.entries {
		if validateLineage(e.m.Reader, rd) == nil {
			name = e.m.Name
			break
		}
	}
	if name == "" {
		rd.Close() //nolint:errcheck
		err := fmt.Errorf("%w: %s matches no mounted lineage", ErrProvenance, path)
		s.remountFailed("", path, remountFailLineage, err)
		return RemountResult{}, err
	}
	res, err := s.remountReader(name, rd)
	if err != nil {
		rd.Close() //nolint:errcheck
	}
	return res, err
}

// remountReader performs the swap: validate under the lock (against
// the state every concurrent request and remount agrees on), install
// the successor snapshot, then drain and close the replaced reader
// outside the lock. On error the caller owns closing rd.
func (s *Server) remountReader(name string, rd *store.Reader) (RemountResult, error) {
	start := time.Now()
	s.mu.Lock()
	st := s.cur
	if st == nil {
		s.mu.Unlock()
		return RemountResult{}, errors.New("serve: server closed")
	}
	ei := -1
	for i, e := range st.entries {
		if e.m.Name == name {
			ei = i
			break
		}
	}
	if ei < 0 {
		s.mu.Unlock()
		err := fmt.Errorf("%w: %q", ErrNoSuchStore, name)
		s.remountFailed(name, rd.Path(), remountFailLineage, err)
		return RemountResult{}, err
	}
	old := st.entries[ei].m.Reader
	if err := validateLineage(old, rd); err != nil {
		s.mu.Unlock()
		s.remountFailed(name, rd.Path(), remountFailLineage, err)
		return RemountResult{}, err
	}
	entries := make([]*mountEntry, len(st.entries))
	copy(entries, st.entries)
	entries[ei] = s.newEntry(Mount{Name: name, Reader: rd})
	s.cur = &state{entries: entries}
	s.mu.Unlock()

	// Drain-then-close: every request pinned to the old snapshot
	// finishes against the old reader before it closes. Unaffected
	// mounts share their entries (and caches) with the new snapshot.
	drainStart := time.Now()
	st.wg.Wait()
	s.metrics.Histogram("tnd_serve_remount_drain_seconds", obs.LatencyBuckets, "mount", name).
		Observe(time.Since(drainStart).Seconds())
	res := RemountResult{
		Store:         name,
		Path:          rd.Path(),
		OldGeneration: old.Meta().Generation,
		NewGeneration: rd.Meta().Generation,
	}
	err := old.Close()
	if err != nil {
		// The swap itself succeeded, but the remount operation still
		// reports the close failure — an io-kind failure on this mount.
		s.remountFailed(name, rd.Path(), remountFailIO, err)
	}
	res.SwapMillis = float64(time.Since(start).Microseconds()) / 1000
	s.metrics.Counter("tnd_serve_remounts_total", "mount", name).Inc()
	s.logger.Info("remount",
		"mount", name,
		"path", res.Path,
		"old_generation", res.OldGeneration,
		"new_generation", res.NewGeneration,
		"swap_ms", res.SwapMillis,
	)
	if err != nil {
		return res, fmt.Errorf("serve: close replaced reader: %w", err)
	}
	return res, nil
}

// Failure kinds for tnd_serve_remount_failures_total: "open" (the
// candidate file would not open as a store), "lineage" (provenance
// rejected: no such mount, stale generation, or foreign lineage) and
// "io" (the swap ran but an I/O step failed, e.g. closing the
// replaced reader).
const (
	remountFailOpen    = "open"
	remountFailLineage = "lineage"
	remountFailIO      = "io"
)

// remountFailed records one rejected or failed remount attempt,
// labeled by mount and failure kind so a fleet can tell which store
// is failing to swap and why. mount may be empty when the failure
// happens before any mount is matched (open errors, lineage-match
// misses in RemountAuto) — those count under mount="unknown".
func (s *Server) remountFailed(mount, path, kind string, err error) {
	if mount == "" {
		mount = "unknown"
	}
	s.metrics.Counter("tnd_serve_remount_failures_total", "mount", mount, "kind", kind).Inc()
	s.logger.Warn("remount rejected", "mount", mount, "path", path, "kind", kind, "error", err.Error())
}

// handleRemount is the admin endpoint for hot swaps. Body:
// {"store": "name", "path": "file.tnd"} — omit "store" to match the
// candidate against every mount's lineage (RemountAuto).
func (s *Server) handleRemount(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Store string `json:"store"`
		Path  string `json:"path"`
	}
	if !decodeBody(w, r, "remount", &req) {
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "remount requires a path")
		return
	}
	var res RemountResult
	var err error
	if req.Store == "" {
		res, err = s.RemountAuto(req.Path)
	} else {
		res, err = s.Remount(req.Store, req.Path)
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrNoSuchStore):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrProvenance):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

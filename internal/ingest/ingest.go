// Package ingest is the crash-safe continuous-ingest daemon behind
// cmd/tndingest: it watches a spool directory (and accepts POSTed
// batches) of JSON transaction batches, appends each arrival to the
// current generation's transaction window (retiring the units that
// fall off a configured sliding window), mines the new window afresh
// with fsg.Mine, publishes generation N+1 via write-to-temp + fsync +
// atomic rename with a journaled intent record, triggers the serving
// layer's hot remount, and GCs generations older than K. The
// window's decoded transactions stay in memory from one generation
// to the next; they are read back from the store only after a start
// or restart.
//
// Every durability step runs through a faultfs.FS, so the crash-
// matrix tests can kill the daemon at any filesystem operation and
// restart it; the journal (journal.go) plus the CURRENT pointer file
// make every step either idempotently completable or cleanly
// restartable, so a killed-and-restarted daemon converges to the
// byte-identical store a never-killed one produces, never loses a
// spool file, and never applies one twice.
//
// Failure policy: transient errors (fold failure, remount rejection,
// disk trouble) retry under exponential backoff with jitter;
// undecodable batches and batches that keep failing are quarantined
// to poison/ with a structured reason file, so one bad batch cannot
// wedge the pipeline. An unusable current store (errCurrentStore)
// and journal I/O trouble (errJournal) are daemon-level errors: they
// are surfaced and retried but never charged to the batch that
// happened to trigger them.
package ingest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tnkd/internal/faultfs"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/obs"
	"tnkd/internal/store"
)

// Directory layout under Options.Dir:
//
//	spool/    incoming batch files (*.json); processed in name order
//	store/    gen-NNNNNN.tnd generations + CURRENT pointer + .tmp staging
//	applied/  batches already folded (the anti-double-apply archive)
//	poison/   quarantined batches + <name>.reason.json
//	ingest.journal
const (
	spoolDir    = "spool"
	storeDir    = "store"
	appliedDir  = "applied"
	poisonDir   = "poison"
	currentFile = "CURRENT"
	journalFile = "ingest.journal"
)

func genName(gen int) string { return fmt.Sprintf("gen-%06d.tnd", gen) }

// ErrRemountStale tells the retry loop a remount "failure" actually
// means the serving layer is already at or past the published
// generation (the startup re-announce of a generation it already
// serves, or an operator's manual admin remount got there first) —
// success, not an error. The cmd layer maps tndserve's 409 responses
// to it.
var ErrRemountStale = errors.New("ingest: serving layer already at or past this generation")

// errBadBatch marks a batch that can never succeed (undecodable,
// empty): quarantined immediately instead of retried.
var errBadBatch = errors.New("ingest: bad batch")

// errCurrentStore marks a current generation whose transactions
// cannot be read back — the daemon's fault, not the arriving batch's,
// so it is retried without charging or quarantining the batch.
var errCurrentStore = errors.New("ingest: current store unusable")

// Options configures a Daemon.
type Options struct {
	// Dir is the data directory root (required); see the layout above.
	Dir string
	// Seed, when non-empty, is a store file adopted as the initial
	// generation when store/ holds none.
	Seed string
	// FS is the filesystem layer for every durability-relevant
	// mutation (nil = the real OS). Tests thread a faultfs.Injector.
	FS faultfs.FS

	// SupportFraction, when > 0, recomputes the absolute support
	// threshold per fold as a fraction of the combined transaction
	// count — matching core.MineTemporal's SupportFraction semantics,
	// so a fold chain stays byte-identical to a one-shot fractional
	// mine. 0 falls back to MinSupport, then to the current store's
	// recorded threshold.
	SupportFraction float64
	// MinSupport is a fixed absolute support threshold (used when
	// SupportFraction is 0; 0 = inherit the store's Meta.MinSupport).
	MinSupport int
	// MaxEdges/MaxSteps/Parallelism are the fsg.Options knobs for
	// each fold; zero values keep fsg defaults, except
	// MaxEdges/MaxSteps which default to the temporal pipeline's
	// 8/200000 so an ingest fold chain matches cmd/tndtemporal's
	// one-shot results.
	MaxEdges    int
	MaxSteps    int
	Parallelism int

	// Window, when > 0, caps the store at the most recent Window
	// ingest units (batches; whatever the adopted seed store held
	// counts as one unit). Each fold then *slides* the window: the
	// arriving batch becomes a new unit, units beyond the cap retire
	// off the front, and the published generation is a fresh mine of
	// exactly the window's transactions. The unit composition is
	// persisted in Meta.WindowSizes, so a restarted daemon rebuilds
	// the window from the store alone — retirement publishes are
	// journaled and crash-recovered exactly like append folds.
	// SupportFraction is computed over the window's transactions.
	// 0 = append-only (supports only grow; the pre-window behaviour).
	Window int

	// KeepGenerations is GC's K: the current generation plus K-1
	// predecessors survive (minimum 1; default 3). Keep it above 1 so
	// a serving layer still draining the previous generation never
	// has its file unlinked mid-swap (mmaps survive the unlink, but
	// a restarting server would not find the file).
	KeepGenerations int
	// MaxAttempts is how many times a transiently failing batch is
	// tried before quarantine (default 5).
	MaxAttempts int
	// RetryBase/RetryMax bound the exponential backoff between
	// attempts (defaults 100ms and 30s); jitter is ±25%.
	RetryBase time.Duration
	RetryMax  time.Duration
	// JitterSeed seeds the backoff jitter (0 = time-seeded).
	JitterSeed int64
	// PollInterval is Run's spool scan cadence (default 500ms).
	PollInterval time.Duration
	// CheckpointEvery is how many journal records may accumulate
	// before the journal is compacted down to the retained window's
	// publish records and applied/ is pruned alongside (default 512).
	// Compaction bounds restart replay time and memory for a daemon
	// that ingests forever; it also bounds the double-apply guard to
	// the GC window (see maybeCheckpoint).
	CheckpointEvery int

	// Remount, when non-nil, is called with the absolute path of each
	// newly published generation to trigger the serving hot-swap
	// (in-process: serve.Server.RemountAuto; out-of-process: POST to
	// tndserve's /v1/admin/remount). Failures retry under backoff and
	// never quarantine anything; ErrRemountStale counts as success.
	Remount func(path string) error

	// Metrics is the registry ingest instruments into (nil =
	// obs.Default). Logger receives structured logs (nil = discard).
	Metrics *obs.Registry
	Logger  *slog.Logger
	// Now overrides the clock (tests); nil = time.Now.
	Now func() time.Time
}

type attempt struct {
	n    int
	next time.Time
}

// Daemon is the continuous-ingest loop. Run/Tick must be driven from
// one goroutine; Status, Handler and the HTTP endpoints are safe to
// use concurrently with it.
type Daemon struct {
	opts    Options
	fs      faultfs.FS
	journal *journal
	logger  *slog.Logger
	rng     *rand.Rand
	now     func() time.Time
	started time.Time

	// Tick-goroutine state (no lock needed).
	published map[string]int      // batch key -> generation, the double-apply guard
	attempts  map[string]*attempt // batch key -> backoff state
	remountAt time.Time
	remountN  int
	// txns is the current generation's decoded transaction window,
	// kept across generations so each graph's matcher index stays
	// built; nil until read back from the store after a (re)mount.
	txns []*graph.Graph

	// Shared with the HTTP handlers, under mu.
	mu             sync.Mutex
	reader         *store.Reader
	curGen         int
	curPath        string
	lastFold       time.Duration
	lastErr        string
	pendingRemount string
	postSeq        int

	mFolds, mFoldFailures, mRetries, mQuarantines *obs.Counter
	mRemountFailures, mGC, mBatchesReceived       *obs.Counter
	mGeneration, mSpoolBacklog, mGenAge           *obs.Gauge
	mFoldSeconds                                  *obs.Histogram
}

// New opens (or initialises) the data directory, replays the journal,
// resolves any interrupted publication, and returns a ready daemon.
// The caller owns Close.
func New(opts Options) (*Daemon, error) {
	if opts.Dir == "" {
		return nil, errors.New("ingest: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS{}
	}
	if opts.KeepGenerations < 1 {
		opts.KeepGenerations = 3
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 30 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 512
	}
	if opts.MaxEdges == 0 {
		opts.MaxEdges = 8
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200000
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	if opts.Logger == nil {
		opts.Logger = obs.Discard()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	d := &Daemon{
		opts:      opts,
		fs:        opts.FS,
		logger:    opts.Logger,
		rng:       rand.New(rand.NewSource(seed)),
		now:       opts.Now,
		started:   opts.Now(),
		published: make(map[string]int),
		attempts:  make(map[string]*attempt),
	}
	m := opts.Metrics
	d.mFolds = m.Counter("tnd_ingest_folds_total")
	d.mFoldFailures = m.Counter("tnd_ingest_fold_failures_total")
	d.mRetries = m.Counter("tnd_ingest_retries_total")
	d.mQuarantines = m.Counter("tnd_ingest_quarantines_total")
	d.mRemountFailures = m.Counter("tnd_ingest_remount_failures_total")
	d.mGC = m.Counter("tnd_ingest_gc_total")
	d.mBatchesReceived = m.Counter("tnd_ingest_batches_received_total")
	d.mGeneration = m.Gauge("tnd_ingest_generation")
	d.mSpoolBacklog = m.Gauge("tnd_ingest_spool_backlog")
	d.mGenAge = m.Gauge("tnd_ingest_generation_age_seconds")
	d.mFoldSeconds = m.Histogram("tnd_ingest_fold_seconds", obs.LatencyBuckets)

	for _, sub := range []string{spoolDir, storeDir, appliedDir, poisonDir} {
		if err := os.MkdirAll(d.path(sub), 0o755); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
	}
	j, recs, err := openJournal(d.fs, d.path(journalFile))
	if err != nil {
		return nil, err
	}
	d.journal = j
	if err := d.recover(recs); err != nil {
		j.Close() //nolint:errcheck // already failing
		return nil, err
	}
	// Startup is the one moment every begin is provably resolved, so a
	// history that outgrew the threshold is compacted right away —
	// the restart already paid the full replay; the next one must not.
	if err := d.maybeCheckpoint(); err != nil && errors.Is(err, faultfs.ErrCrashed) {
		j.Close() //nolint:errcheck
		return nil, err
	}
	if d.opts.Remount != nil {
		// Re-announce the current generation on every start: the swap
		// is idempotent (a stale candidate is rejected harmlessly) and
		// a crash between publish and remount must not strand the
		// serving layer on an old generation forever.
		d.pendingRemount = d.curPath
	}
	d.mGeneration.Set(int64(d.curGen))
	return d, nil
}

func (d *Daemon) path(parts ...string) string {
	return filepath.Join(append([]string{d.opts.Dir}, parts...)...)
}

// Close releases the journal and the current store reader. It does
// not stop a concurrent Run — cancel its context first.
func (d *Daemon) Close() error {
	var first error
	if d.journal != nil {
		if err := d.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.mu.Lock()
	r := d.reader
	d.reader = nil
	d.mu.Unlock()
	if r != nil {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Generation returns the currently published generation.
func (d *Daemon) Generation() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.curGen
}

// CurrentPath returns the file path of the current generation.
func (d *Daemon) CurrentPath() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.curPath
}

// --- recovery ---

// recover establishes the current generation and resolves every
// journaled intent against what actually reached the disk.
func (d *Daemon) recover(recs []journalRecord) error {
	// Double-apply guard: batches with a durable publish record.
	// publishedStores tracks the store files those records name — a
	// begin resolution must never remove one of them.
	dangling := map[string]journalRecord{} // key -> last unresolved begin
	publishedStores := map[string]bool{}
	for _, r := range recs {
		key := r.Batch + "@" + r.SHA
		switch r.Op {
		case "begin":
			dangling[key] = r
		case "publish":
			d.published[key] = r.Gen
			publishedStores[r.Store] = true
			delete(dangling, key)
		case "quarantine":
			delete(dangling, key)
		}
	}

	if err := d.mountCurrent(); err != nil {
		return err
	}

	// Resolve dangling begins in journal order. More than one can
	// dangle at once (a transiently failing batch leaves its begin
	// open while later batches proceed), which is why every resolution
	// below is gated on the store file's own batch identity.
	keys := make([]string, 0, len(dangling))
	for k := range dangling {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return dangling[keys[i]].Unix < dangling[keys[j]].Unix })
	for _, k := range keys {
		if err := d.resolveBegin(dangling[k], publishedStores); err != nil {
			return err
		}
	}

	// Sweep staging strays: interrupted folds and CURRENT renames.
	ents, err := os.ReadDir(d.path(storeDir))
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			if err := d.fs.Remove(d.path(storeDir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("ingest: sweep %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// mountCurrent opens the generation CURRENT points at, falling back
// to the highest openable gen-*.tnd, then to adopting Options.Seed.
func (d *Daemon) mountCurrent() error {
	if name := d.readCurrent(); name != "" {
		if r, err := store.Open(d.path(storeDir, name)); err == nil {
			d.setCurrent(r)
			return nil
		}
		// CURRENT names a missing or torn file — a crash window or
		// manual surgery; fall through to the scan.
		d.logger.Warn("ingest: CURRENT target did not open, scanning generations", "current", name)
	}
	names, err := d.genFiles()
	if err != nil {
		return err
	}
	for i := len(names) - 1; i >= 0; i-- {
		r, err := store.Open(d.path(storeDir, names[i]))
		if err != nil {
			d.logger.Warn("ingest: generation did not open, trying predecessor", "store", names[i], "error", err.Error())
			continue
		}
		d.setCurrent(r)
		return d.writeCurrent(names[i])
	}
	if d.opts.Seed != "" {
		return d.adoptSeed()
	}
	return errors.New("ingest: no store generation found and no Options.Seed to adopt")
}

func (d *Daemon) readCurrent() string {
	data, err := os.ReadFile(d.path(storeDir, currentFile))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// genFiles returns the gen-*.tnd names in store/ in ascending
// generation order.
func (d *Daemon) genFiles() ([]string, error) {
	ents, err := os.ReadDir(d.path(storeDir))
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	var names []string
	for _, e := range ents {
		var g int
		if n, _ := fmt.Sscanf(e.Name(), "gen-%06d.tnd", &g); n == 1 && e.Name() == genName(g) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *Daemon) setCurrent(r *store.Reader) {
	d.txns = nil
	d.mu.Lock()
	old := d.reader
	d.reader = r
	d.curGen = r.Meta().Generation
	d.curPath = r.Path()
	d.mu.Unlock()
	if old != nil {
		old.Close() //nolint:errcheck // replaced reader; nothing to do about it
	}
}

// adoptSeed copies Options.Seed into the generation chain as its
// recorded generation and points CURRENT at it.
func (d *Daemon) adoptSeed() error {
	r, err := store.Open(d.opts.Seed)
	if err != nil {
		return fmt.Errorf("ingest: open seed: %w", err)
	}
	// Only transaction-set stores (fsg/temporal) have successors: a
	// different repetition count of an Algorithm 1 store is a fresh
	// mine, not a successor.
	if r.Meta().Kind == "structural" {
		r.Close() //nolint:errcheck
		return fmt.Errorf("ingest: seed cannot start a generation chain: %s is an Algorithm 1 store (one record per repetition) — structural stores have no successor; re-mine with more repetitions instead", d.opts.Seed)
	}
	name := genName(r.Meta().Generation)
	data, err := os.ReadFile(d.opts.Seed)
	if err != nil {
		r.Close() //nolint:errcheck
		return fmt.Errorf("ingest: read seed: %w", err)
	}
	r.Close() //nolint:errcheck // reopened from the adopted copy below
	tmp := d.path(storeDir, name+".tmp")
	if err := d.writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("ingest: stage seed: %w", err)
	}
	if err := d.fs.Rename(tmp, d.path(storeDir, name)); err != nil {
		return fmt.Errorf("ingest: adopt seed: %w", err)
	}
	if err := d.fs.SyncDir(d.path(storeDir)); err != nil {
		return fmt.Errorf("ingest: adopt seed: %w", err)
	}
	ar, err := store.Open(d.path(storeDir, name))
	if err != nil {
		return fmt.Errorf("ingest: open adopted seed: %w", err)
	}
	d.setCurrent(ar)
	d.logger.Info("ingest: adopted seed store", "seed", d.opts.Seed, "store", name, "generation", ar.Meta().Generation)
	return d.writeCurrent(name)
}

// writeFileSync writes data via the fault-injectable FS: create,
// write, fsync, close.
func (d *Daemon) writeFileSync(path string, data []byte) error {
	f, err := d.fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

// writeCurrent atomically repoints CURRENT — the publication commit
// point.
func (d *Daemon) writeCurrent(storeName string) error {
	tmp := d.path(storeDir, currentFile+".tmp")
	if err := d.writeFileSync(tmp, []byte(storeName+"\n")); err != nil {
		return fmt.Errorf("ingest: stage CURRENT: %w", err)
	}
	if err := d.fs.Rename(tmp, d.path(storeDir, currentFile)); err != nil {
		return fmt.Errorf("ingest: commit CURRENT: %w", err)
	}
	if err := d.fs.SyncDir(d.path(storeDir)); err != nil {
		return fmt.Errorf("ingest: sync CURRENT: %w", err)
	}
	return nil
}

// beginOwnsStore reports whether meta proves the store file was
// written by exactly the batch the begin record names. Publication is
// only ever completed on a match: generation numbers repeat across
// batches (every in-flight fold targets curGen+1), so name and
// generation alone cannot identify who wrote a file.
func beginOwnsStore(m store.Meta, b journalRecord) bool {
	return m.SourceBatch == b.Batch && m.SourceSHA == b.SHA
}

// resolveBegin decides what a dangling begin record means against the
// disk: a durable store file carrying this begin's own batch identity
// (Meta.SourceBatch/SourceSHA) is finished idempotently; everything
// else leaves the batch in the spool to re-fold. Rollback is
// deliberately timid — a gen file referenced by CURRENT or by any
// publish record is live data and is never removed, even when a
// failed batch's begin happens to name it.
func (d *Daemon) resolveBegin(b journalRecord, publishedStores map[string]bool) error {
	final := d.path(storeDir, b.Store)
	if b.Store == genName(d.curGen) && d.curPath == final {
		if beginOwnsStore(d.reader.Meta(), b) {
			// Crash landed between the CURRENT rename and the publish
			// record: the publication committed. Record and archive.
			return d.completePublication(b)
		}
		// The current generation was published by a *different* batch
		// that reused this begin's target name (this begin's fold
		// failed transiently before the crash). The batch is unfolded:
		// leave it in the spool and touch nothing.
		d.logger.Info("ingest: dangling intent superseded by another batch, will re-fold",
			"store", b.Store, "batch", b.Batch)
		return nil
	}
	if b.Gen == d.curGen+1 {
		if r, err := store.Open(final); err == nil {
			// The fold finished and the store file is durable, but the
			// crash hit before CURRENT advanced. The file was fsynced
			// before its rename, so an openable file here is complete:
			// finish the publication rather than redo the fold — but
			// only if this begin's batch is the one that wrote it.
			m := r.Meta()
			if m.Generation == b.Gen && filepath.Base(m.Parent) == genName(d.curGen) && beginOwnsStore(m, b) {
				if err := d.writeCurrent(b.Store); err != nil {
					r.Close() //nolint:errcheck
					return err
				}
				d.setCurrent(r)
				d.mGeneration.Set(int64(d.curGen))
				d.logger.Info("ingest: completed interrupted publication", "store", b.Store, "generation", b.Gen, "batch", b.Batch)
				return d.completePublication(b)
			}
			r.Close() //nolint:errcheck
			if !beginOwnsStore(m, b) {
				// Another in-flight batch's durable fold — its own begin
				// record resolves it. Hands off.
				return nil
			}
		}
	}
	// The fold never committed. Remove the stray file only when it is
	// provably not live data: ahead of the committed chain, unnamed by
	// any publish record, and either unopenable or carrying this
	// begin's own batch identity. Anything else stays on disk — a
	// re-fold renames over it, and GC handles aged-out generations.
	if b.Gen > d.curGen && !publishedStores[b.Store] && b.Store != genName(d.curGen) {
		remove := true
		if r, err := store.Open(final); err == nil {
			remove = beginOwnsStore(r.Meta(), b)
			r.Close() //nolint:errcheck
		}
		if remove {
			if err := d.fs.Remove(final); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("ingest: roll back %s: %w", b.Store, err)
			}
			d.logger.Info("ingest: rolled back interrupted fold", "store", b.Store, "batch", b.Batch)
			return nil
		}
	}
	d.logger.Info("ingest: dangling intent left unresolved, batch will re-fold", "store", b.Store, "batch", b.Batch)
	return nil
}

// completePublication appends the publish record for a committed
// generation and archives its batch if it still sits in the spool.
func (d *Daemon) completePublication(b journalRecord) error {
	key := b.Batch + "@" + b.SHA
	if err := d.journal.append(journalRecord{Op: "publish", Batch: b.Batch, SHA: b.SHA, Gen: b.Gen, Store: b.Store, Unix: d.now().Unix()}); err != nil {
		return err
	}
	d.published[key] = b.Gen
	spool := d.path(spoolDir, b.Batch)
	if _, err := os.Stat(spool); err == nil {
		if err := d.fs.Rename(spool, d.path(appliedDir, b.Batch)); err != nil {
			return fmt.Errorf("ingest: archive %s: %w", b.Batch, err)
		}
	}
	return nil
}

// --- the processing loop ---

// Run drives Tick until ctx is cancelled. It returns non-nil only on
// a crash-simulation error (tests) — real filesystem trouble is
// retried forever under backoff, because a store daemon's job is to
// outlive transient disk pressure.
func (d *Daemon) Run(ctx context.Context) error {
	tick := time.NewTicker(d.opts.PollInterval)
	defer tick.Stop()
	for {
		if err := d.Tick(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}

// Tick is one processing pass: fold every due spool batch, trigger a
// pending remount, GC old generations, refresh gauges. It returns
// non-nil only when the injected filesystem reports a simulated
// crash; every real-world error is absorbed into retry state.
func (d *Daemon) Tick() error {
	if err := d.processSpool(); err != nil {
		return err
	}
	if err := d.tryRemount(); err != nil {
		return err
	}
	if err := d.gc(); err != nil {
		return err
	}
	d.refreshGauges()
	return nil
}

// eligibleBatchName admits a spool entry only once it is in place: no
// dotfiles, no temp markers — POSTed batches are staged under dotted
// names and renamed in atomically.
func eligibleBatchName(name string) bool {
	return !strings.HasPrefix(name, ".") &&
		!strings.Contains(name, ".tmp") && !strings.Contains(name, ".partial")
}

func (d *Daemon) listSpool() ([]string, error) {
	ents, err := os.ReadDir(d.path(spoolDir))
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !eligibleBatchName(e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// readSpoolFile reads a spool file whole and returns its size and
// SHA-256. A file over maxBatchBytes, the POST cap, is only hashed by
// streaming and comes back without data: it is quarantined unread.
func readSpoolFile(path string) (data []byte, size int64, sum [sha256.Size]byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, sum, err
	}
	defer f.Close() //nolint:errcheck // read-only
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, sum, err
	}
	size = fi.Size()
	if size > maxBatchBytes {
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return nil, 0, sum, err
		}
		h.Sum(sum[:0])
		return nil, size, sum, nil
	}
	data = make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, 0, sum, err
	}
	return data, size, sha256.Sum256(data), nil
}

func (d *Daemon) processSpool() error {
	names, err := d.listSpool()
	if err != nil {
		d.setLastErr(err)
		return nil
	}
	for _, name := range names {
		data, size, sum, err := readSpoolFile(d.path(spoolDir, name))
		if err != nil {
			continue // raced away
		}
		key := name + "@" + hex.EncodeToString(sum[:8])
		if _, done := d.published[key]; done {
			// Already folded in a previous life (the crash hit after
			// publish but before archive): archive without reapplying.
			// Any backoff state is stale — nothing is retried for a
			// published batch, and a lingering entry would block
			// journal checkpointing forever.
			delete(d.attempts, key)
			if err := d.fs.Rename(d.path(spoolDir, name), d.path(appliedDir, name)); err != nil {
				if errors.Is(err, faultfs.ErrCrashed) {
					return err
				}
				d.setLastErr(err)
			}
			d.logger.Info("ingest: batch already applied, archived", "batch", name)
			continue
		}
		if at := d.attempts[key]; at != nil && d.now().Before(at.next) {
			continue
		}
		if size > maxBatchBytes {
			err = fmt.Errorf("%w: %d-byte file exceeds the %d-byte batch cap", errBadBatch, size, maxBatchBytes)
		} else {
			err = d.applyBatch(name, key, hex.EncodeToString(sum[:8]), data)
		}
		switch {
		case err == nil:
			delete(d.attempts, key)
		case errors.Is(err, faultfs.ErrCrashed):
			return err
		case errors.Is(err, errCurrentStore):
			// The current store is unusable — a daemon-level fault, not
			// this batch's. Surface it and retry next tick; quarantining
			// the batch would scapegoat good data.
			d.mFoldFailures.Inc()
			d.setLastErr(err)
			d.logger.Error("ingest: current store cannot be read back", "error", err.Error())
			return nil
		case errors.Is(err, errJournal):
			// Journal trouble (disk pressure on the journal file) is
			// likewise the daemon's fault, never the batch's: retry the
			// whole pass next tick without touching its attempt count.
			d.mFoldFailures.Inc()
			d.setLastErr(err)
			d.logger.Error("ingest: journal unavailable, retrying next tick", "batch", name, "error", err.Error())
			return nil
		default:
			d.mFoldFailures.Inc()
			d.setLastErr(err)
			at := d.attempts[key]
			if at == nil {
				at = &attempt{}
				d.attempts[key] = at
			}
			at.n++
			if errors.Is(err, errBadBatch) || at.n >= d.opts.MaxAttempts {
				if qerr := d.quarantine(name, key, err, at.n); qerr != nil {
					if errors.Is(qerr, faultfs.ErrCrashed) {
						return qerr
					}
					d.setLastErr(qerr)
					continue // quarantine itself failed; keep the attempt state
				}
				delete(d.attempts, key)
			} else {
				at.next = d.now().Add(d.backoff(at.n))
				d.mRetries.Inc()
				d.logger.Warn("ingest: fold failed, will retry", "batch", name, "attempt", at.n, "error", err.Error())
			}
		}
	}
	return nil
}

// applyBatch runs the full fold→publish pipeline for one batch. Step
// order is the crash-safety argument:
//
//  1. journal begin (intent durable before any store mutation)
//  2. mine the new window into the store writer for gen-N+1.tnd; its
//     bytes go to store/gen-N+1.tnd.tmp, invisible to everyone
//  3. Writer.Close: one footer, fsync, atomic rename into gen-N+1.tnd,
//     fsync dir
//  4. CURRENT := gen-N+1.tnd via write-temp + rename  ← commit point
//  5. journal publish (recovery reconstructs it from 4 if we die here)
//  6. archive the spool file (recovery redoes it from the publish map)
//  7. queue the remount trigger (idempotent, retried, never fatal)
func (d *Daemon) applyBatch(name, key, sha string, data []byte) error {
	_, txns, err := DecodeBatch(data)
	if err != nil {
		return fmt.Errorf("%w: %v", errBadBatch, err)
	}
	if len(txns) == 0 {
		return fmt.Errorf("%w: no transactions", errBadBatch)
	}
	gen := d.curGen + 1
	storeName := genName(gen)
	if err := d.journal.append(journalRecord{Op: "begin", Batch: name, SHA: sha, Gen: gen, Store: storeName, Unix: d.now().Unix()}); err != nil {
		return err
	}
	start := time.Now()

	m := d.reader.Meta()
	if d.txns == nil {
		txns, err := d.reader.Transactions()
		if err != nil {
			return fmt.Errorf("%w: %v", errCurrentStore, err)
		}
		d.txns = txns
	}
	priorTxns := d.txns
	// Window accounting: the prior store's unit composition comes from
	// its own metadata (a store without WindowSizes — a seed, or a
	// pre-window generation — is one unit), the arriving batch appends
	// a unit, and units beyond the cap retire off the front. All of it
	// derives from (prior store, batch) alone, so a crash-recovering
	// daemon recomputes the identical fold.
	units := m.WindowSizes
	if len(units) == 0 && len(priorTxns) > 0 {
		units = []int{len(priorTxns)}
	}
	priorEnd := m.WindowEnd
	if priorEnd == 0 {
		priorEnd = len(units)
	}
	priorStart := m.WindowStart
	if priorStart == 0 {
		priorStart = 1
	}
	newUnits := append(append([]int(nil), units...), len(txns))
	winStart, winEnd := priorStart, priorEnd+1
	retireCount := 0
	if d.opts.Window > 0 {
		for len(newUnits) > d.opts.Window {
			retireCount += newUnits[0]
			newUnits = newUnits[1:]
			winStart++
		}
	}

	support := m.MinSupport
	if d.opts.SupportFraction > 0 {
		support = fsg.MinSupportFraction(len(priorTxns)-retireCount+len(txns), d.opts.SupportFraction)
	} else if d.opts.MinSupport > 0 {
		support = d.opts.MinSupport
	}

	meta := store.Meta{
		Name:        m.Name,
		Kind:        m.Kind,
		MinSupport:  support,
		Parent:      d.curPath,
		Generation:  gen,
		SourceBatch: name,
		SourceSHA:   sha,
		Note:        fmt.Sprintf("ingest fold of batch %s (+%d transactions)", name, len(txns)),
	}
	if d.opts.Window > 0 {
		meta.WindowStart, meta.WindowEnd = winStart, winEnd
		meta.Retired = retireCount
		meta.WindowSizes = newUnits
		meta.Note = fmt.Sprintf("ingest window slide on batch %s (+%d transactions, -%d retired, units %d..%d)",
			name, len(txns), retireCount, winStart, winEnd)
	}
	final := d.path(storeDir, storeName)
	w, err := store.CreateFS(d.fs, final, meta)
	if err != nil {
		return err
	}
	whole := append(priorTxns[retireCount:len(priorTxns):len(priorTxns)], txns...)
	if err := w.WriteTransactions(whole); err != nil {
		w.Abort() //nolint:errcheck // crashed FS cannot clean up; recovery sweeps .tmp
		return err
	}
	fsgOpts := fsg.Options{
		MinSupport:  support,
		MaxEdges:    d.opts.MaxEdges,
		MaxSteps:    d.opts.MaxSteps,
		Parallelism: d.opts.Parallelism,
		Checkpoint: func(lv fsg.LevelStats, pats []fsg.Pattern) error {
			return w.WriteLevel(lv.Edges, pats)
		},
	}
	if _, err := fsg.Mine(whole, fsgOpts); err != nil {
		w.Abort() //nolint:errcheck
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := d.writeCurrent(storeName); err != nil {
		return err
	}
	// The publication is durable from here: recovery completes the
	// rest idempotently, so later errors must not re-fold the batch.
	d.published[key] = gen
	nr, err := store.Open(final)
	if err != nil {
		return err
	}
	d.setCurrent(nr)
	d.txns = whole
	elapsed := time.Since(start)
	d.mu.Lock()
	d.lastFold = elapsed
	d.lastErr = ""
	if d.opts.Remount != nil {
		d.pendingRemount = final
	}
	d.mu.Unlock()
	d.mFolds.Inc()
	d.mFoldSeconds.Observe(elapsed.Seconds())
	d.mGeneration.Set(int64(gen))
	d.logger.Info("ingest: published generation",
		"batch", name, "generation", gen, "store", storeName,
		"transactions", len(txns), "retired", retireCount,
		"fold_ms", float64(elapsed.Microseconds())/1000)
	if err := d.journal.append(journalRecord{Op: "publish", Batch: name, SHA: sha, Gen: gen, Store: storeName, Unix: d.now().Unix()}); err != nil {
		return err
	}
	if err := d.fs.Rename(d.path(spoolDir, name), d.path(appliedDir, name)); err != nil {
		return err
	}
	return nil
}

// quarantine moves a poisonous batch out of the pipeline with a
// structured reason: journal intent, reason file, then the move.
func (d *Daemon) quarantine(name, key string, cause error, tries int) error {
	sha := ""
	if i := strings.LastIndex(key, "@"); i >= 0 {
		sha = key[i+1:]
	}
	if err := d.journal.append(journalRecord{Op: "quarantine", Batch: name, SHA: sha, Reason: cause.Error(), Unix: d.now().Unix()}); err != nil {
		return err
	}
	reason, err := json.MarshalIndent(map[string]any{
		"batch":    name,
		"sha":      sha,
		"error":    cause.Error(),
		"attempts": tries,
		"unix":     d.now().Unix(),
	}, "", " ")
	if err != nil {
		return err
	}
	if err := d.writeFileSync(d.path(poisonDir, name+".reason.json"), append(reason, '\n')); err != nil {
		return fmt.Errorf("ingest: write quarantine reason: %w", err)
	}
	if err := d.fs.Rename(d.path(spoolDir, name), d.path(poisonDir, name)); err != nil {
		return fmt.Errorf("ingest: quarantine %s: %w", name, err)
	}
	d.mQuarantines.Inc()
	d.logger.Error("ingest: quarantined batch", "batch", name, "attempts", tries, "error", cause.Error())
	return nil
}

// tryRemount pushes the latest published generation at the serving
// layer. Failures back off and retry forever — the fold pipeline
// keeps running, generation N keeps serving, and nothing is ever
// quarantined over a serving hiccup.
func (d *Daemon) tryRemount() error {
	d.mu.Lock()
	pending := d.pendingRemount
	d.mu.Unlock()
	if pending == "" || d.opts.Remount == nil {
		return nil
	}
	if d.now().Before(d.remountAt) {
		return nil
	}
	err := d.opts.Remount(pending)
	if err == nil || errors.Is(err, ErrRemountStale) {
		d.mu.Lock()
		if d.pendingRemount == pending {
			d.pendingRemount = ""
		}
		d.mu.Unlock()
		d.remountN = 0
		if err != nil {
			d.logger.Info("ingest: serving layer already current", "store", pending)
		} else {
			d.logger.Info("ingest: remounted serving layer", "store", pending)
		}
		return nil
	}
	if errors.Is(err, faultfs.ErrCrashed) {
		return err
	}
	d.mRemountFailures.Inc()
	d.remountN++
	d.remountAt = d.now().Add(d.backoff(d.remountN))
	d.setLastErr(fmt.Errorf("remount: %w", err))
	d.logger.Warn("ingest: remount failed, will retry", "store", pending, "attempt", d.remountN, "error", err.Error())
	return nil
}

// gc removes generations older than the KeepGenerations window, then
// checkpoints the journal when it has grown past the threshold. Every
// non-crash error here is transient daemon trouble: surfaced, the
// pass abandoned, retried next tick — GC must never kill the daemon.
func (d *Daemon) gc() error {
	names, err := d.genFiles()
	if err != nil {
		d.setLastErr(err)
		return nil
	}
	cut := d.curGen - d.opts.KeepGenerations + 1
	for _, name := range names {
		var g int
		fmt.Sscanf(name, "gen-%06d.tnd", &g) //nolint:errcheck // genFiles validated the shape
		if g >= cut {
			continue
		}
		if err := d.journal.append(journalRecord{Op: "gc", Store: name, Unix: d.now().Unix()}); err != nil {
			if errors.Is(err, faultfs.ErrCrashed) {
				return err
			}
			d.setLastErr(err)
			d.logger.Warn("ingest: gc journal append failed, retrying next tick", "store", name, "error", err.Error())
			return nil
		}
		if err := d.fs.Remove(d.path(storeDir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			if errors.Is(err, faultfs.ErrCrashed) {
				return err
			}
			d.setLastErr(err)
			continue
		}
		d.mGC.Inc()
		d.logger.Info("ingest: removed old generation", "store", name)
	}
	return d.maybeCheckpoint()
}

// maybeCheckpoint compacts the journal down to the publish records of
// the retained generation window once it has grown past
// CheckpointEvery records, and prunes applied/ to the batches those
// records name. Without this the journal, the in-memory publish map
// and applied/ all grow with all-time batch count, and every restart
// replays the full history. Compaction only runs when no batch is
// mid-retry: a retrying batch has a dangling begin in the journal,
// and dropping it would orphan the rollback state a crash right now
// would need.
//
// Dropping a publish record also drops its double-apply guard, so the
// guard window equals the GC window: re-spooling a batch whose
// generation aged out re-folds it as new data (documented semantics —
// applied/ is pruned in the same step precisely so an operator cannot
// find an "already applied" copy of a batch the daemon no longer
// remembers).
func (d *Daemon) maybeCheckpoint() error {
	if d.journal.count < d.opts.CheckpointEvery || len(d.attempts) != 0 {
		return nil
	}
	cut := d.curGen - d.opts.KeepGenerations + 1
	type pub struct {
		key string
		gen int
	}
	var keep []pub
	drop := map[string]bool{} // batch names whose publish records age out
	for key, gen := range d.published {
		name := key
		if i := strings.LastIndex(key, "@"); i >= 0 {
			name = key[:i]
		}
		if gen >= cut {
			keep = append(keep, pub{key: key, gen: gen})
			delete(drop, name)
			continue
		}
		drop[name] = true
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].gen < keep[j].gen })
	recs := make([]journalRecord, 0, len(keep))
	retained := map[string]bool{}
	for _, p := range keep {
		name, sha := p.key, ""
		if i := strings.LastIndex(p.key, "@"); i >= 0 {
			name, sha = p.key[:i], p.key[i+1:]
		}
		retained[name] = true
		recs = append(recs, journalRecord{Op: "publish", Batch: name, SHA: sha, Gen: p.gen, Store: genName(p.gen), Unix: d.now().Unix()})
	}
	if err := d.journal.rewrite(recs); err != nil {
		if errors.Is(err, faultfs.ErrCrashed) {
			return err
		}
		d.setLastErr(err)
		d.logger.Warn("ingest: journal checkpoint failed, retrying next tick", "error", err.Error())
		return nil
	}
	// The compacted journal is durable: shed the aged-out state. The
	// applied/ sweep is self-healing — it removes anything the
	// retained publish set no longer names, so a crash mid-sweep just
	// leaves files the next checkpoint removes.
	for key, gen := range d.published {
		if gen < cut {
			delete(d.published, key)
		}
	}
	if ents, err := os.ReadDir(d.path(appliedDir)); err == nil {
		for _, e := range ents {
			if e.IsDir() || retained[e.Name()] {
				continue
			}
			if err := d.fs.Remove(d.path(appliedDir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
				if errors.Is(err, faultfs.ErrCrashed) {
					return err
				}
				d.setLastErr(err)
			}
		}
	}
	d.logger.Info("ingest: checkpointed journal", "records", len(recs), "pruned", len(drop))
	return nil
}

func (d *Daemon) backoff(n int) time.Duration {
	b := d.opts.RetryBase
	for i := 1; i < n; i++ {
		b *= 2
		if b >= d.opts.RetryMax {
			b = d.opts.RetryMax
			break
		}
	}
	// ±25% jitter keeps a fleet of retries from thundering together.
	j := b / 4
	if j > 0 {
		b += time.Duration(d.rng.Int63n(int64(2*j))) - j
	}
	if b > d.opts.RetryMax {
		b = d.opts.RetryMax
	}
	return b
}

func (d *Daemon) setLastErr(err error) {
	d.mu.Lock()
	d.lastErr = err.Error()
	d.mu.Unlock()
}

func (d *Daemon) refreshGauges() {
	if names, err := d.listSpool(); err == nil {
		d.mSpoolBacklog.Set(int64(len(names)))
	}
	d.mu.Lock()
	created := int64(0)
	if d.reader != nil {
		created = d.reader.Meta().CreatedUnix
	}
	d.mu.Unlock()
	if created > 0 {
		age := d.now().Unix() - created
		if age < 0 {
			age = 0
		}
		d.mGenAge.Set(age)
	}
}

// countDir is a cheap entry count for status (reason files excluded).
func (d *Daemon) countDir(sub string, skipSuffix string) int {
	ents, err := os.ReadDir(d.path(sub))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() || (skipSuffix != "" && strings.HasSuffix(e.Name(), skipSuffix)) {
			continue
		}
		if !eligibleBatchName(e.Name()) {
			continue
		}
		n++
	}
	return n
}

// Status is the GET /v1/ingest/status view.
type Status struct {
	Generation     int     `json:"generation"`
	Store          string  `json:"store"`
	Transactions   int     `json:"transactions"`
	Patterns       int     `json:"patterns"`
	LastFoldMillis float64 `json:"last_fold_ms"`
	Folds          int64   `json:"folds"`
	FoldFailures   int64   `json:"fold_failures"`
	Retries        int64   `json:"retries"`
	Quarantines    int64   `json:"quarantines"`
	SpoolBacklog   int     `json:"spool_backlog"`
	Poisoned       int     `json:"poisoned"`
	PendingRemount bool    `json:"pending_remount"`
	LastError      string  `json:"last_error,omitempty"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	// Window is the configured sliding-window width in batches (0 =
	// append-only, the window never retires anything). The remaining
	// window fields describe the currently served generation and come
	// from its store metadata: WindowStart..WindowEnd are the 1-based
	// unit bounds of the window, WindowUnits the batches currently
	// inside it, and Retired the transactions the last slide retired.
	Window      int `json:"window,omitempty"`
	WindowStart int `json:"window_start,omitempty"`
	WindowEnd   int `json:"window_end,omitempty"`
	WindowUnits int `json:"window_units,omitempty"`
	Retired     int `json:"retired,omitempty"`
}

// Status reports the daemon's health — safe to call concurrently with
// the processing loop.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	st := Status{
		Generation:     d.curGen,
		LastFoldMillis: float64(d.lastFold.Microseconds()) / 1000,
		PendingRemount: d.pendingRemount != "",
		LastError:      d.lastErr,
	}
	st.Window = d.opts.Window
	if d.reader != nil {
		st.Store = filepath.Base(d.curPath)
		st.Transactions = d.reader.NumTransactions()
		st.Patterns = d.reader.NumPatterns()
		m := d.reader.Meta()
		st.WindowStart = m.WindowStart
		st.WindowEnd = m.WindowEnd
		st.WindowUnits = len(m.WindowSizes)
		st.Retired = m.Retired
	}
	d.mu.Unlock()
	st.Folds = d.mFolds.Value()
	st.FoldFailures = d.mFoldFailures.Value()
	st.Retries = d.mRetries.Value()
	st.Quarantines = d.mQuarantines.Value()
	st.SpoolBacklog = d.countDir(spoolDir, "")
	st.Poisoned = d.countDir(poisonDir, ".reason.json")
	st.UptimeSeconds = d.now().Sub(d.started).Seconds()
	return st
}

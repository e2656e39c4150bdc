// Package faultfs is a minimal write-side filesystem abstraction with
// a schedule-driven fault injector. Production code runs on the OS
// passthrough; tests and the CI crash matrix swap in an Injector that
// fails, tears, or "crashes" at chosen operation counts, so every
// durability step of the store writer and the ingest pipeline can be
// exercised against short writes, fsync errors, torn staging files,
// rename failures, and process death at arbitrary step boundaries.
//
// The injector is deterministic: a fault schedule names an operation
// kind, an optional path substring, and how many matching operations
// to let through first. Randomised runs (the CI crash matrix) draw
// those counts from a seeded RNG *outside* this package and replay
// identically from the seed.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// File is the write-side file handle surface the store writer and the
// ingest journal need. *os.File satisfies it.
type File interface {
	io.Writer
	io.WriterAt
	Sync() error
	Close() error
}

// FS is the mutation surface threaded through crash-safe writers.
// Reads stay on the plain os package: torn state is produced by
// failing writes, not by lying to readers.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames inside it durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS used outside tests.
type OS struct{}

func (OS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Append(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error               { return os.Remove(name) }
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Op names one injectable operation.
type Op uint8

const (
	// OpAny matches every operation — the crash-matrix wildcard.
	OpAny Op = iota
	OpCreate
	OpAppend
	OpWrite
	OpWriteAt
	OpSync
	OpClose
	OpRename
	OpRemove
	OpTruncate
	OpSyncDir
)

var opNames = [...]string{"any", "create", "append", "write", "writeat", "sync", "close", "rename", "remove", "truncate", "syncdir"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Kind selects what a triggered fault does.
type Kind uint8

const (
	// Error fails the operation outright; no bytes are applied.
	Error Kind = iota
	// Short applies only part of a write (per Fault.Keep) and then
	// fails it — a torn write. Non-write operations treat Short like
	// Error.
	Short
	// Crash applies part of a write (per Fault.Keep), fails it, and
	// marks the injector dead: every subsequent operation returns
	// ErrCrashed, simulating the process being killed at this point.
	// Bytes still buffered above the FS (e.g. in the store writer's
	// bufio layer) are lost exactly as they would be in a real kill.
	Crash
)

// Fault is one scheduled injection.
type Fault struct {
	// Op restricts the fault to one operation kind; OpAny matches all.
	Op Op
	// Path, when non-empty, restricts the fault to operations whose
	// path contains it as a substring.
	Path string
	// After is how many matching operations run cleanly before the
	// fault fires. 0 fires on the first match.
	After int
	// Kind is the failure mode.
	Kind Kind
	// Keep bounds the bytes applied by a Short/Crash write fault:
	// n >= 0 keeps n bytes, -1 keeps half the buffer, and k <= -2
	// keeps all but |k| trailing bytes (so -2 tears exactly the last
	// two bytes off — a torn end-of-footer magic).
	Keep int
	// Err overrides the returned error (default ErrInjected, or
	// ErrCrashed for Crash faults).
	Err error
}

func (f *Fault) errFor() error {
	if f.Err != nil {
		return f.Err
	}
	if f.Kind == Crash {
		return ErrCrashed
	}
	return ErrInjected
}

// keepBytes resolves Fault.Keep against an n-byte buffer.
func keepBytes(keep, n int) int {
	switch {
	case keep >= 0:
		if keep > n {
			return n
		}
		return keep
	case keep == -1:
		return n / 2
	default:
		if k := n + keep; k > 0 {
			return k
		}
		return 0
	}
}

// ErrInjected is the default error returned by a triggered fault.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed reports an operation attempted at or after a Crash
// fault: the simulated process is dead and nothing further succeeds.
var ErrCrashed = errors.New("faultfs: simulated crash")

type faultState struct {
	Fault
	remaining int
	fired     bool
}

// Injector wraps an FS with a fault schedule. Safe for concurrent
// use.
type Injector struct {
	base FS

	mu      sync.Mutex
	faults  []*faultState
	ops     int
	crashed bool
}

// NewInjector wraps base with the given schedule.
func NewInjector(base FS, faults ...Fault) *Injector {
	in := &Injector{base: base}
	for _, f := range faults {
		in.AddFault(f)
	}
	return in
}

// AddFault appends one fault to the schedule.
func (in *Injector) AddFault(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = append(in.faults, &faultState{Fault: f, remaining: f.After})
}

// Ops returns the number of operations observed so far. Enumerating a
// crash matrix runs the workload once fault-free to learn Ops, then
// replays it with a Crash fault at each k in [0, Ops).
func (in *Injector) Ops() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Crashed reports whether a Crash fault has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// step accounts one operation and returns the fault to apply, if any.
// A non-nil error means the injector is already crashed.
func (in *Injector) step(op Op, path string) (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	if in.crashed {
		return nil, ErrCrashed
	}
	for _, fs := range in.faults {
		if fs.fired {
			continue
		}
		if fs.Op != OpAny && fs.Op != op {
			continue
		}
		if fs.Path != "" && !strings.Contains(path, fs.Path) {
			continue
		}
		if fs.remaining > 0 {
			fs.remaining--
			continue
		}
		fs.fired = true
		if fs.Kind == Crash {
			in.crashed = true
		}
		return &fs.Fault, nil
	}
	return nil, nil
}

func (in *Injector) Create(name string) (File, error) {
	fault, err := in.step(OpCreate, name)
	if err != nil {
		return nil, err
	}
	if fault != nil {
		return nil, fault.errFor()
	}
	f, err := in.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{f: f, path: name, in: in}, nil
}

func (in *Injector) Append(name string) (File, error) {
	fault, err := in.step(OpAppend, name)
	if err != nil {
		return nil, err
	}
	if fault != nil {
		return nil, fault.errFor()
	}
	f, err := in.base.Append(name)
	if err != nil {
		return nil, err
	}
	return &file{f: f, path: name, in: in}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	return in.plainOp(OpRename, oldpath+" -> "+newpath, func() error { return in.base.Rename(oldpath, newpath) })
}

func (in *Injector) Remove(name string) error {
	return in.plainOp(OpRemove, name, func() error { return in.base.Remove(name) })
}

func (in *Injector) Truncate(name string, size int64) error {
	return in.plainOp(OpTruncate, name, func() error { return in.base.Truncate(name, size) })
}

func (in *Injector) SyncDir(dir string) error {
	return in.plainOp(OpSyncDir, dir, func() error { return in.base.SyncDir(dir) })
}

func (in *Injector) plainOp(op Op, path string, run func() error) error {
	fault, err := in.step(op, path)
	if err != nil {
		return err
	}
	if fault != nil {
		return fault.errFor()
	}
	return run()
}

// file wraps a base File with the injector's schedule.
type file struct {
	f    File
	path string
	in   *Injector
}

func (x *file) Write(b []byte) (int, error) {
	fault, err := x.in.step(OpWrite, x.path)
	if err != nil {
		return 0, err
	}
	if fault == nil {
		return x.f.Write(b)
	}
	n := 0
	if fault.Kind != Error {
		// Torn write: part of the buffer reaches the file before the
		// failure, like a partial write cut off by a kill or a full disk.
		n, _ = x.f.Write(b[:keepBytes(fault.Keep, len(b))])
	}
	return n, fault.errFor()
}

func (x *file) WriteAt(b []byte, off int64) (int, error) {
	fault, err := x.in.step(OpWriteAt, x.path)
	if err != nil {
		return 0, err
	}
	if fault == nil {
		return x.f.WriteAt(b, off)
	}
	n := 0
	if fault.Kind != Error {
		n, _ = x.f.WriteAt(b[:keepBytes(fault.Keep, len(b))], off)
	}
	return n, fault.errFor()
}

func (x *file) Sync() error {
	fault, err := x.in.step(OpSync, x.path)
	if err != nil {
		return err
	}
	if fault != nil {
		return fault.errFor()
	}
	return x.f.Sync()
}

// Close always releases the underlying handle — an in-process
// "crashed" daemon must not leak file descriptors — but reports the
// fault when one applies.
func (x *file) Close() error {
	fault, err := x.in.step(OpClose, x.path)
	cerr := x.f.Close()
	if err != nil {
		return err
	}
	if fault != nil {
		return fault.errFor()
	}
	return cerr
}

package main

import (
	"sync"
	"time"

	"tnkd/internal/faultfs"
)

// fsOp is one timed filesystem call.
type fsOp struct {
	op         string
	path       string
	start, end time.Time
}

// timingFS wraps a faultfs.FS and times every call, so the ingest
// daemon's durability work (write, fsync, rename, directory fsync) is
// measured from outside through the ingest.Options.FS seam.
type timingFS struct {
	base faultfs.FS
	mu   sync.Mutex
	ops  []fsOp
}

func newTimingFS(base faultfs.FS) *timingFS { return &timingFS{base: base} }

func (t *timingFS) record(op, path string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.ops = append(t.ops, fsOp{op: op, path: path, start: start, end: end})
	t.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (t *timingFS) take() []fsOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.ops
	t.ops = nil
	return ops
}

func (t *timingFS) Create(name string) (faultfs.File, error) {
	start := time.Now()
	f, err := t.base.Create(name)
	t.record("create", name, start)
	if err != nil {
		return nil, err
	}
	return &timingFile{f: f, name: name, fs: t}, nil
}

func (t *timingFS) Append(name string) (faultfs.File, error) {
	start := time.Now()
	f, err := t.base.Append(name)
	t.record("append", name, start)
	if err != nil {
		return nil, err
	}
	return &timingFile{f: f, name: name, fs: t}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := t.base.Rename(oldpath, newpath)
	t.record("rename", newpath, start)
	return err
}

func (t *timingFS) Remove(name string) error {
	start := time.Now()
	err := t.base.Remove(name)
	t.record("remove", name, start)
	return err
}

func (t *timingFS) Truncate(name string, size int64) error {
	start := time.Now()
	err := t.base.Truncate(name, size)
	t.record("truncate", name, start)
	return err
}

func (t *timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.base.SyncDir(dir)
	t.record("syncdir", dir, start)
	return err
}

type timingFile struct {
	f    faultfs.File
	name string
	fs   *timingFS
}

func (x *timingFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := x.f.Write(b)
	x.fs.record("write", x.name, start)
	return n, err
}

func (x *timingFile) WriteAt(b []byte, off int64) (int, error) {
	start := time.Now()
	n, err := x.f.WriteAt(b, off)
	x.fs.record("write", x.name, start)
	return n, err
}

func (x *timingFile) Sync() error {
	start := time.Now()
	err := x.f.Sync()
	x.fs.record("sync", x.name, start)
	return err
}

func (x *timingFile) Close() error {
	start := time.Now()
	err := x.f.Close()
	x.fs.record("close", x.name, start)
	return err
}

package ingest

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReplayJournal feeds arbitrary bytes to the CRC-framed journal
// reader. Replay must never panic or allocate out of proportion to
// the journal, and the valid prefix it reports
// must end on a record boundary and replay to exactly the same
// records — openJournal truncates the file to that prefix, so a
// restart after the truncation must see what the first replay saw.
// The checked-in corpus under testdata/fuzz/FuzzReplayJournal holds a
// valid multi-record journal, one with a torn last line, and one with
// a CRC mismatch mid-file.
func FuzzReplayJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), journalFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, keep, err := replayJournal(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		// The checked-in corpus replays at under 50 bytes allocated per
		// input byte, and a journal of 20,000 valid "{}" records at
		// under 70.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); alloc > bound {
			t.Fatalf("replaying %d journal bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
		}
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep %d outside [0, %d]", keep, len(data))
		}
		if keep > 0 && data[keep-1] != '\n' {
			t.Fatalf("keep %d does not end on a line boundary", keep)
		}

		if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		recs2, keep2, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay of the kept prefix: %v", err)
		}
		if keep2 != keep || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("kept prefix replays to %d records / keep %d, want %d / %d",
				len(recs2), keep2, len(recs), keep)
		}
	})
}

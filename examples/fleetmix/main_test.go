package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdout pins the example's report. Regenerate the file with
// "go run ./examples/fleetmix > examples/fleetmix/testdata/stdout.txt" only when
// the report is meant to change.
func TestStdout(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from testdata/stdout.txt:\n%s", got.Bytes())
	}
}

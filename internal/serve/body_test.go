package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// endlessBody is a request body far larger than maxRequestBody: a
// JSON prefix that opens a string, then filler up to limit bytes. It
// counts the bytes the server reads from it.
type endlessBody struct {
	prefix string
	limit  int64
	read   int64
}

func (b *endlessBody) Read(p []byte) (int, error) {
	if b.read >= b.limit {
		return 0, io.EOF
	}
	n := min(int64(len(p)), b.limit-b.read)
	for i := range p[:n] {
		if off := b.read + int64(i); off < int64(len(b.prefix)) {
			p[i] = b.prefix[off]
		} else {
			p[i] = 'a'
		}
	}
	b.read += n
	return int(n), nil
}

// TestPostBodiesAreBounded checks that both JSON POST endpoints answer
// 413 to an over-cap body after reading little more than the cap.
func TestPostBodiesAreBounded(t *testing.T) {
	fx := newMinedFixture(t)
	h := fx.srv.Handler()
	for _, tc := range []struct{ path, prefix string }{
		{"/v1/patterns:batch", `{"codes":["`},
		{"/v1/admin/remount", `{"path":"`},
	} {
		body := &endlessBody{prefix: tc.prefix, limit: 64 * maxRequestBody}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d (want 413): %s", tc.path, rec.Code, rec.Body)
		}
		if body.read > maxRequestBody+4096 {
			t.Fatalf("%s: server read %d bytes of an over-cap body (cap %d)", tc.path, body.read, maxRequestBody)
		}
	}
}

// TestFullBatchOfLongCodesIsServed checks the cap leaves room for a
// legal batch: maxBatchCodes copies of the fixture's longest code, and
// maxBatchCodes unknown codes twice as long as the longest code in the
// stores CI mines (135 bytes), both answer 200.
func TestFullBatchOfLongCodesIsServed(t *testing.T) {
	fx := newMinedFixture(t)
	longest := ""
	for i := range fx.result.Patterns {
		if c := fx.result.Patterns[i].Code; len(c) > len(longest) {
			longest = c
		}
	}
	same := make([]string, maxBatchCodes)
	long := make([]string, maxBatchCodes)
	for i := range same {
		same[i] = longest
		long[i] = strings.Repeat("A", 270)
	}
	if found, _ := postBatch(t, fx.ts, same, http.StatusOK); found != maxBatchCodes {
		t.Fatalf("batch of the longest code found %d codes, want %d", found, maxBatchCodes)
	}
	if found, _ := postBatch(t, fx.ts, long, http.StatusOK); found != 0 {
		t.Fatalf("batch of unknown codes found %d codes", found)
	}
}

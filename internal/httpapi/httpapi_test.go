package httpapi

import (
	"fmt"
	"net/http"
	"testing"

	"unijoin/client"
)

// discardWriter is a minimal ResponseWriter for benchmarks.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkWriteLine measures the streaming path's per-line cost: one
// batch line of 1024 pairs, the server's default batch size. The
// buffer pooling exists for exactly this loop.
func BenchmarkWriteLine(b *testing.B) {
	pairs := make([][2]uint32, 1024)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i), uint32(i + 1)}
	}
	line := client.JoinLine{Pairs: pairs}
	lw := NewLineWriter(&discardWriter{})
	defer lw.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lw.WriteLine(line)
	}
}

// captureWriter records everything written through it.
type captureWriter struct {
	discardWriter
	got []byte
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.got = append(c.got, p...)
	return len(p), nil
}

// TestLineWriterReuse checks pooled buffers produce correct output
// across sequential writers (the per-request lifecycle) and that Close
// is safe to call twice.
func TestLineWriterReuse(t *testing.T) {
	for i := 0; i < 4; i++ {
		w := &captureWriter{}
		lw := NewLineWriter(w)
		lw.WriteLine(map[string]int{"i": i})
		lw.WriteLine(map[string]int{"j": i + 10})
		lw.Close()
		lw.Close()
		want := fmt.Sprintf("{\"i\":%d}\n{\"j\":%d}\n", i, i+10)
		if string(w.got) != want {
			t.Fatalf("iteration %d wrote %q, want %q", i, w.got, want)
		}
	}
}

// TestNewServerTimeouts pins the listener timeouts: header reads and
// idle keep-alives are bounded, and writes are not, so long join
// streams are never cut off.
func TestNewServerTimeouts(t *testing.T) {
	srv := NewServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; both must be set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut long join streams", srv.WriteTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server %q lost its address or handler", srv.Addr)
	}
}

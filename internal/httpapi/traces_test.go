package httpapi

import (
	"testing"
	"time"

	"unijoin/client"
	"unijoin/internal/obs"
)

// serverJoin builds a shard's server.join subtree with the given phase
// durations in milliseconds.
func serverJoin(start time.Time, partition, sweep, stream int) *obs.Span {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	s := &obs.Span{Name: "server.join", Start: start, Duration: ms(partition + sweep)}
	s.Child("partition", 0, ms(partition))
	s.Child("sweep", ms(partition), ms(sweep))
	s.Child("stream", ms(partition), ms(stream))
	return s
}

// TestPhaseTraceRouterTree derives the phase object of a two-leg
// router tree: each phase is the slowest leg's, taken from the
// server.join subtrees grafted under the scatter spans, even when the
// maxima come from different legs.
func TestPhaseTraceRouterTree(t *testing.T) {
	start := time.Now()
	root := &obs.Span{Name: "router.join", Start: start, Duration: 20 * time.Millisecond}
	for _, leg := range []*obs.Span{
		serverJoin(start, 3, 10, 2),
		serverJoin(start, 5, 7, 4),
	} {
		scatter := &obs.Span{Name: "scatter", Start: start, Duration: 18 * time.Millisecond}
		scatter.Children = append(scatter.Children, leg)
		root.Children = append(root.Children, scatter)
	}
	got := PhaseTrace(root)
	want := client.PhaseTrace{PartitionMillis: 5, SweepMillis: 10, StreamMillis: 4}
	if got == nil || *got != want {
		t.Fatalf("PhaseTrace(router tree) = %+v, want %+v", got, want)
	}

	// On a server the root is the server.join span itself.
	if got := PhaseTrace(serverJoin(start, 1, 2, 3)); got == nil ||
		*got != (client.PhaseTrace{PartitionMillis: 1, SweepMillis: 2, StreamMillis: 3}) {
		t.Fatalf("PhaseTrace(server.join) = %+v", got)
	}

	// Legs that returned no shard tree leave no phases to report.
	bare := &obs.Span{Name: "router.join", Children: []*obs.Span{{Name: "scatter"}, {Name: "scatter"}}}
	if got := PhaseTrace(bare); got != nil {
		t.Fatalf("PhaseTrace(no server.join) = %+v, want nil", got)
	}
}

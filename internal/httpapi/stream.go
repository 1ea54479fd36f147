package httpapi

import (
	"net/http"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// Stream is the client edge of one join or window response. Its
// transport is chosen once, from the request's Accept header: binary
// frames for a client that negotiated them, NDJSON lines otherwise.
// A backend writes result batches (WritePairs, WriteRecords) or
// relays whole shard frames (Relay); the front closes the stream with
// Finish or Fail. Not safe for concurrent use: a router serializes
// its shard legs' relays.
type Stream struct {
	w  http.ResponseWriter
	fw *FrameWriter // frame client; nil for NDJSON
	lw *LineWriter  // NDJSON client; nil for frames
	m  *Metrics

	// Decode scratch for the NDJSON edge, reused across batches.
	pairs [][2]uint32
	recs  []geom.Record
	out   []client.RecordOut
}

// newStream picks the client's transport; a frame stream counts its
// frames into the front's frame families.
func (f *Front) newStream(w http.ResponseWriter, r *http.Request) *Stream {
	s := &Stream{w: w, m: f.m}
	if wire.Negotiates(r) {
		s.fw = NewFrameWriter(w, func(t wire.Type, frames, bytes int64) {
			f.m.Frames.With(t.String()).Add(frames)
			f.m.FrameBytes.With(t.String()).Add(bytes)
		})
	} else {
		s.lw = NewLineWriter(w)
	}
	return s
}

// close releases the writer's pooled buffer.
func (s *Stream) close() {
	if s.fw != nil {
		s.fw.Close()
		return
	}
	s.lw.Close()
}

// WritePairs sends one batch of join pairs: PAIRS frames, or one
// NDJSON line.
func (s *Stream) WritePairs(pairs [][2]uint32) {
	if s.fw != nil {
		s.fw.WritePairs(pairs)
		return
	}
	s.lw.WriteLine(client.JoinLine{Pairs: pairs})
}

// WriteRecords sends one batch of window records: RECORDS frames
// packed straight from the kernel's representation, or one NDJSON
// line.
func (s *Stream) WriteRecords(recs []geom.Record) {
	if s.fw != nil {
		s.fw.WriteRecords(recs)
		return
	}
	s.out = AppendRecordsOut(s.out[:0], recs)
	s.lw.WriteLine(client.WindowLine{Records: s.out})
}

// Relay delivers one shard PAIRS or RECORDS frame, given as its exact
// wire bytes. A frame client gets it verbatim, its CRC left for the
// client to check. An NDJSON client gets it CRC-checked, decoded and
// written as one line; a frame that fails either fails the query in
// the internal-error class, with none of its entries written.
func (s *Stream) Relay(raw []byte) error {
	if s.fw != nil {
		s.fw.Relay(raw)
		return nil
	}
	if err := s.relayLine(raw); err != nil {
		return &client.APIError{
			Status: http.StatusInternalServerError, Code: client.CodeInternal,
			Message: "corrupt shard frame: " + err.Error(),
		}
	}
	return nil
}

func (s *Stream) relayLine(raw []byte) error {
	if err := wire.Verify(raw); err != nil {
		return err
	}
	f := wire.Frame{Type: wire.Type(raw[wire.OffType]), Payload: raw[wire.HeaderSize:]}
	var err error
	if f.Type == wire.TypeRecords {
		if s.recs, err = f.Records(s.recs[:0]); err == nil && len(s.recs) > 0 {
			s.WriteRecords(s.recs)
		}
		return err
	}
	if s.pairs, err = f.Pairs(s.pairs[:0]); err == nil && len(s.pairs) > 0 {
		s.WritePairs(s.pairs)
	}
	return err
}

// Finish closes a successful stream with its summary: the SUMMARY and
// END frames, or the terminal summary line.
func (s *Stream) Finish(summary any) {
	if s.fw != nil {
		s.fw.WriteSummary(summary)
		s.fw.End()
		return
	}
	s.lw.WriteLine(struct {
		Summary any `json:"summary"`
	}{summary})
}

// Fail reports a failed query: as an HTTP status while nothing has
// streamed, and after that as a terminal error line, or an ERROR
// frame plus END — never a silently truncated stream. Cancellations
// are counted apart from errors; an error sent as a status is counted
// by the middleware.
func (s *Stream) Fail(err error) {
	apiErr := apiError(err)
	if apiErr.Code == client.CodeCanceled {
		s.m.Canceled.Inc()
	}
	if s.fw != nil && !s.fw.Started() || s.lw != nil && !s.lw.Started() {
		WriteError(s.w, apiErr)
		return
	}
	if apiErr.Code != client.CodeCanceled {
		s.m.Errors.Inc()
	}
	if s.fw != nil {
		s.fw.WriteError(apiErr)
		s.fw.End()
		return
	}
	s.lw.WriteLine(struct {
		Error *client.APIError `json:"error"`
	}{apiErr})
}

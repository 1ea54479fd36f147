package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// This file is the client side of the binary frame transport
// (internal/wire): Join/Window streaming over packed frames instead
// of NDJSON. The transport is negotiated — the request carries
// Accept: application/x-sj-frames, and the response's Content-Type
// says whether the server obliged. Against an old NDJSON-only server
// (which ignores the Accept header) or one answering 406, the
// decoding methods (JoinFrames, WindowFrames) fall back to the NDJSON
// stream transparently, so an end user never has to know what the far
// end speaks. The raw relay methods (JoinRawFrames, WindowRawFrames)
// are a router's shard legs, which are always frames: they have no
// fallback, and a router encodes NDJSON only at its client edge.

// frameError classifies a broken frame stream as the API's
// internal-error class: corruption or truncation on the wire is a
// failing peer, not a bad request, and must match ErrInternal under
// errors.Is just like a server-reported internal failure.
func frameError(format string, args ...any) *APIError {
	return &APIError{
		Status: http.StatusInternalServerError, Code: CodeInternal,
		Message: fmt.Sprintf(format, args...),
	}
}

// notAcceptable reports whether err is an HTTP 406 — a server
// refusing the offered media type, the explicit fallback signal.
func notAcceptable(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotAcceptable
}

// JoinFrames is JoinBatches over the binary transport: pairs arrive
// as packed frames, decoded and CRC-checked end to end, and are
// delivered to onBatch in the same batch granularity as the NDJSON
// path. Falls back to NDJSON when the server doesn't speak frames.
func (c *Client) JoinFrames(ctx context.Context, req JoinRequest, onBatch func(pairs [][2]uint32)) (*JoinSummary, error) {
	resp, err := c.postStreamAccept(ctx, "/v1/join", req, wire.ContentType)
	if err != nil {
		if notAcceptable(err) {
			return c.joinNDJSON(ctx, req, onBatch)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if !wire.IsFrameResponse(resp.Header.Get("Content-Type")) {
		return joinLines(resp.Body, onBatch)
	}
	return decodeJoinFrames(resp.Body, onBatch)
}

// joinNDJSON re-issues the join over plain NDJSON — the 406 fallback,
// which must not recurse through PreferBinary.
func (c *Client) joinNDJSON(ctx context.Context, req JoinRequest, onBatch func([][2]uint32)) (*JoinSummary, error) {
	body, err := c.postStream(ctx, "/v1/join", req)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return joinLines(body, onBatch)
}

// decodeJoinFrames consumes a join frame stream: DATA (pairs) frames
// to onBatch, one terminal SUMMARY or ERROR, then END. Anything
// malformed — corruption, truncation, a stream that stops without its
// END frame — comes back as the internal-error class.
func decodeJoinFrames(body io.Reader, onBatch func([][2]uint32)) (*JoinSummary, error) {
	dec := wire.NewDecoder(body)
	var pairs [][2]uint32
	var summary *JoinSummary
	var apiErr *APIError
	for {
		f, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return nil, frameError("join frame stream ended without an END frame")
		}
		if err != nil {
			return nil, frameError("%v", err)
		}
		switch f.Type {
		case wire.TypePairs:
			if pairs, err = f.Pairs(pairs[:0]); err != nil {
				return nil, frameError("%v", err)
			}
			if onBatch != nil && len(pairs) > 0 {
				onBatch(pairs)
			}
		case wire.TypeSummary:
			summary = new(JoinSummary)
			if err := json.Unmarshal(f.Payload, summary); err != nil {
				return nil, frameError("bad summary frame: %v", err)
			}
		case wire.TypeError:
			apiErr = new(APIError)
			if err := json.Unmarshal(f.Payload, apiErr); err != nil {
				return nil, frameError("bad error frame: %v", err)
			}
		case wire.TypeEnd:
			if apiErr != nil {
				return nil, apiErr
			}
			if summary == nil {
				return nil, frameError("join frame stream ended without a summary")
			}
			return summary, nil
		default:
			return nil, frameError("unexpected %s frame in a join stream", f.Type)
		}
	}
}

// WindowFrames is WindowBatches over the binary transport: records
// arrive packed in the engine's 20-byte layout and are converted to
// RecordOut at the edge. Falls back to NDJSON when the server doesn't
// speak frames.
func (c *Client) WindowFrames(ctx context.Context, req WindowRequest, onBatch func([]RecordOut)) (*WindowSummary, error) {
	resp, err := c.postStreamAccept(ctx, "/v1/window", req, wire.ContentType)
	if err != nil {
		if notAcceptable(err) {
			return c.windowNDJSON(ctx, req, onBatch)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if !wire.IsFrameResponse(resp.Header.Get("Content-Type")) {
		return windowLines(resp.Body, onBatch)
	}
	return decodeWindowFrames(resp.Body, onBatch)
}

// windowNDJSON re-issues the window query over plain NDJSON.
func (c *Client) windowNDJSON(ctx context.Context, req WindowRequest, onBatch func([]RecordOut)) (*WindowSummary, error) {
	body, err := c.postStream(ctx, "/v1/window", req)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return windowLines(body, onBatch)
}

// decodeWindowFrames consumes a window frame stream, mirroring
// decodeJoinFrames with RECORDS payloads.
func decodeWindowFrames(body io.Reader, onBatch func([]RecordOut)) (*WindowSummary, error) {
	dec := wire.NewDecoder(body)
	var recs []geom.Record
	var out []RecordOut
	var summary *WindowSummary
	var apiErr *APIError
	for {
		f, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return nil, frameError("window frame stream ended without an END frame")
		}
		if err != nil {
			return nil, frameError("%v", err)
		}
		switch f.Type {
		case wire.TypeRecords:
			if recs, err = f.Records(recs[:0]); err != nil {
				return nil, frameError("%v", err)
			}
			if onBatch != nil && len(recs) > 0 {
				out = out[:0]
				for _, rec := range recs {
					out = append(out, RecordOut{ID: rec.ID, Rect: Rect{
						XLo: float64(rec.Rect.XLo), YLo: float64(rec.Rect.YLo),
						XHi: float64(rec.Rect.XHi), YHi: float64(rec.Rect.YHi),
					}})
				}
				onBatch(out)
			}
		case wire.TypeSummary:
			summary = new(WindowSummary)
			if err := json.Unmarshal(f.Payload, summary); err != nil {
				return nil, frameError("bad summary frame: %v", err)
			}
		case wire.TypeError:
			apiErr = new(APIError)
			if err := json.Unmarshal(f.Payload, apiErr); err != nil {
				return nil, frameError("bad error frame: %v", err)
			}
		case wire.TypeEnd:
			if apiErr != nil {
				return nil, apiErr
			}
			if summary == nil {
				return nil, frameError("window frame stream ended without a summary")
			}
			return summary, nil
		default:
			return nil, frameError("unexpected %s frame in a window stream", f.Type)
		}
	}
}

// JoinRawFrames is the relay form of JoinFrames and a router's
// per-shard join leg: every PAIRS frame is handed to onFrame as its
// exact wire bytes (header + payload, CRC untouched and unverified),
// valid only until onFrame returns, and an error from onFrame aborts
// the stream and is returned unchanged. Only the terminal SUMMARY or
// ERROR frame is parsed (and CRC-verified, since this process consumes
// it). There is no NDJSON fallback: a fleet is built from one tree, so
// a server that answers in another format is a broken peer, reported
// in the ErrUnavailable (502) class.
func (c *Client) JoinRawFrames(ctx context.Context, req JoinRequest, onFrame func(raw []byte) error) (*JoinSummary, error) {
	return rawFrames[JoinSummary](ctx, c, "/v1/join", req, wire.TypePairs, onFrame)
}

// WindowRawFrames is JoinRawFrames for window queries, relaying
// RECORDS frames.
func (c *Client) WindowRawFrames(ctx context.Context, req WindowRequest, onFrame func(raw []byte) error) (*WindowSummary, error) {
	return rawFrames[WindowSummary](ctx, c, "/v1/window", req, wire.TypeRecords, onFrame)
}

// rawFrames posts a streaming query that must be answered with frames,
// relays its dataType frames to onFrame, and parses the summary.
func rawFrames[S any](ctx context.Context, c *Client, path string, req any, dataType wire.Type, onFrame func(raw []byte) error) (*S, error) {
	resp, err := c.postStreamAccept(ctx, path, req, wire.ContentType)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !wire.IsFrameResponse(ct) {
		return nil, &APIError{
			Status: http.StatusBadGateway, Code: CodeUnavailable,
			Message: fmt.Sprintf("answered %q instead of a frame stream", ct),
		}
	}
	raw, err := relayFrames(resp.Body, dataType, onFrame)
	if err != nil {
		return nil, err
	}
	var summary S
	if err := json.Unmarshal(raw, &summary); err != nil {
		return nil, frameError("bad summary frame: %v", err)
	}
	return &summary, nil
}

// relayFrames scans a frame stream without decoding payloads: frames
// of dataType go to onFrame verbatim (its error ends the scan); the
// terminal SUMMARY payload is CRC-verified and returned for the caller
// to parse; an ERROR frame becomes the shard's *APIError. The stream
// must close with END.
func relayFrames(body io.Reader, dataType wire.Type, onFrame func(raw []byte) error) ([]byte, error) {
	sc := wire.NewScanner(body)
	var summaryPayload []byte
	var apiErr *APIError
	for {
		t, raw, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return nil, frameError("frame stream ended without an END frame")
		}
		if err != nil {
			return nil, frameError("%v", err)
		}
		switch t {
		case dataType:
			if onFrame != nil {
				if err := onFrame(raw); err != nil {
					return nil, err
				}
			}
		case wire.TypeSummary, wire.TypeError:
			if err := wire.Verify(raw); err != nil {
				return nil, frameError("%v", err)
			}
			if t == wire.TypeSummary {
				summaryPayload = append(summaryPayload[:0], raw[wire.HeaderSize:]...)
				continue
			}
			apiErr = new(APIError)
			if err := json.Unmarshal(raw[wire.HeaderSize:], apiErr); err != nil {
				return nil, frameError("bad error frame: %v", err)
			}
		case wire.TypeEnd:
			if apiErr != nil {
				return nil, apiErr
			}
			if summaryPayload == nil {
				return nil, frameError("frame stream ended without a summary")
			}
			return summaryPayload, nil
		default:
			return nil, frameError("unexpected %s frame in the stream", t)
		}
	}
}

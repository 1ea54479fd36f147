package shard_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/shard"
	"unijoin/internal/wire"
)

// TestBinaryTransportEqualsNDJSON is the transport-parity property:
// for every algorithm, shard count, and windowing, the pair set a
// client receives over the negotiated binary transport equals the
// NDJSON set equals the single-process brute-force answer — on
// uniform and boundary-adversarial inputs, through the full
// client → router relay → shards path. Window record sets must agree
// the same way. It also proves the router's legs are frames whatever
// its client speaks: an NDJSON client's unwindowed join and
// whole-universe window query grow every shard's sj_frames_total
// PAIRS and RECORDS counters.
func TestBinaryTransportEqualsNDJSON(t *testing.T) {
	fixedBounds := []unijoin.Coord{140, 320, 500, 680, 810, 930}
	advA, advB := adversarial(fixedBounds)
	cases := []struct {
		name  string
		a, b  []unijoin.Record
		fixed []unijoin.Coord
	}{
		{name: "uniform", a: datagen.Uniform(61, 1500, universe, 25), b: datagen.Uniform(62, 1100, universe, 25)},
		{name: "adversarial", a: advA, b: advB, fixed: fixedBounds},
	}
	win := unijoin.NewRect(100, 100, 450, 450)
	winDTO := client.Rect{XLo: 100, YLo: 100, XHi: 450, YHi: 450}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rels := map[string][]unijoin.Record{"a": tc.a, "b": tc.b}
			names := []string{"a", "b"}
			wantAll := brute(tc.a, tc.b, nil)
			wantWin := brute(tc.a, tc.b, &win)

			for _, k := range []int{1, 2, 4} {
				var plan *shard.Plan
				if tc.fixed != nil {
					var err error
					plan, err = shard.PlanFromBoundaries(universe, tc.fixed[:k-1])
					if err != nil {
						t.Fatal(err)
					}
				} else {
					plan = shard.NewPlan(universe, k, tc.a, tc.b)
				}
				ncl, router, url := startFleet(t, plan, names, rels, true)
				bcl := client.New(url, nil)
				bcl.PreferBinary = true
				ctx := context.Background()

				for _, alg := range allAlgorithms {
					for _, windowed := range []bool{false, true} {
						req := client.JoinRequest{Left: "a", Right: "b", Algorithm: alg}
						want := wantAll
						if windowed {
							req.Window = &winDTO
							want = wantWin
						}
						collect := func(cl *client.Client) map[unijoin.Pair]bool {
							got := map[unijoin.Pair]bool{}
							dups := 0
							sum, err := cl.Join(ctx, req, func(l, r uint32) {
								p := unijoin.Pair{Left: l, Right: r}
								if got[p] {
									dups++
								}
								got[p] = true
							})
							if err != nil {
								t.Fatalf("k=%d %s windowed=%v: %v", k, alg, windowed, err)
							}
							if dups != 0 {
								t.Fatalf("k=%d %s windowed=%v: %d duplicate pairs", k, alg, windowed, dups)
							}
							if int64(len(got)) != sum.Pairs {
								t.Fatalf("k=%d %s windowed=%v: streamed %d pairs, summary says %d",
									k, alg, windowed, len(got), sum.Pairs)
							}
							return got
						}
						before := shardFrames(t, router, "pairs")
						nd := collect(ncl)
						if !windowed {
							assertFramesGrew(t, before, shardFrames(t, router, "pairs"))
						}
						bin := collect(bcl)
						if len(nd) != len(want) || len(bin) != len(want) {
							t.Fatalf("k=%d %s windowed=%v: ndjson %d, binary %d, brute %d pairs",
								k, alg, windowed, len(nd), len(bin), len(want))
						}
						for p := range want {
							if !nd[p] {
								t.Fatalf("k=%d %s windowed=%v: pair %v missing over NDJSON", k, alg, windowed, p)
							}
							if !bin[p] {
								t.Fatalf("k=%d %s windowed=%v: pair %v missing over binary", k, alg, windowed, p)
							}
						}
					}
				}

				// Window queries: the record sets must equal brute force
				// over both transports. The whole universe reaches every
				// shard's stripe, so each one streams RECORDS frames.
				collectRecs := func(cl *client.Client, w client.Rect) map[uint32]client.RecordOut {
					got := map[uint32]client.RecordOut{}
					if _, err := cl.Window(ctx, client.WindowRequest{Relation: "a", Window: &w},
						func(r client.RecordOut) { got[r.ID] = r }); err != nil {
						t.Fatalf("k=%d window %+v: %v", k, w, err)
					}
					return got
				}
				for _, w := range []client.Rect{winDTO, {XLo: 0, YLo: 0, XHi: 1000, YHi: 1000}} {
					before := shardFrames(t, router, "records")
					ndr := collectRecs(ncl, w)
					if w.XHi == 1000 {
						assertFramesGrew(t, before, shardFrames(t, router, "records"))
					}
					binr := collectRecs(bcl, w)
					want := map[uint32]client.Rect{}
					wr := unijoin.NewRect(unijoin.Coord(w.XLo), unijoin.Coord(w.YLo), unijoin.Coord(w.XHi), unijoin.Coord(w.YHi))
					for _, rec := range tc.a {
						if rec.Rect.Intersects(wr) {
							want[rec.ID] = client.Rect{
								XLo: float64(rec.Rect.XLo), YLo: float64(rec.Rect.YLo),
								XHi: float64(rec.Rect.XHi), YHi: float64(rec.Rect.YHi),
							}
						}
					}
					if len(ndr) != len(want) || len(binr) != len(want) {
						t.Fatalf("k=%d window %+v: %d records over NDJSON, %d over binary, brute %d",
							k, w, len(ndr), len(binr), len(want))
					}
					for id, rect := range want {
						if ndr[id].Rect != rect || binr[id].Rect != rect {
							t.Fatalf("k=%d window %+v: record %d is %+v over NDJSON, %+v over binary, want %+v",
								k, w, id, ndr[id].Rect, binr[id].Rect, rect)
						}
					}
				}
			}
		})
	}
}

// shardFrames scrapes each shard's sj_frames_total{type=typ} counter,
// in endpoint order.
func shardFrames(t *testing.T, router *shard.Router, typ string) []float64 {
	t.Helper()
	prefix := `sj_frames_total{type="` + typ + `"} `
	var out []float64
	for _, ep := range router.Endpoints() {
		resp, err := http.Get(ep + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		v := 0.0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				if v, err = strconv.ParseFloat(rest, 64); err != nil {
					t.Fatalf("%s/metrics: %q: %v", ep, sc.Text(), err)
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// assertFramesGrew fails unless every shard's frame counter grew.
func assertFramesGrew(t *testing.T, before, after []float64) {
	t.Helper()
	for i := range before {
		if after[i] <= before[i] {
			t.Fatalf("shard %d wrote no frames for an NDJSON client's query (%v → %v): its leg was not binary",
				i, before[i], after[i])
		}
	}
}

// frameShardStub serves POST /v1/join and /v1/window with a fixed
// pre-framed binary body, standing in for a shard whose exact output
// bytes the test controls.
func frameShardStub(t *testing.T, body []byte) string {
	t.Helper()
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, r *http.Request) {
		if !wire.Negotiates(r) {
			t.Error("router did not negotiate the binary transport with the shard")
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(body)
	}
	mux.HandleFunc("POST /v1/join", serve)
	mux.HandleFunc("POST /v1/window", serve)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRouterRelayZeroDecode proves the router's relay performs zero
// per-entry decode end to end: a shard's PAIRS frame with a
// deliberately broken payload CRC — which any decode/re-encode cycle
// would either reject or silently repair — must come out of the
// router front byte-identical, CRC still broken.
func TestRouterRelayZeroDecode(t *testing.T) {
	payload := []byte{7, 0, 0, 0, 9, 0, 0, 0} // one pair (7, 9)
	corrupt := wire.AppendFrame(nil, wire.TypePairs, payload)
	corrupt[8] ^= 0xA5 // break the CRC
	sum, err := json.Marshal(&client.JoinSummary{Left: "a", Right: "b", Algorithm: "PQ", Pairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), corrupt...)
	body = wire.AppendFrame(body, wire.TypeSummary, sum)
	body = wire.AppendFrame(body, wire.TypeEnd, nil)

	router, err := shard.NewRouter([]string{frameShardStub(t, body)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)

	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/join",
		bytes.NewReader([]byte(`{"left":"a","right":"b"}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !wire.IsFrameResponse(resp.Header.Get("Content-Type")) {
		t.Fatalf("front answered %q, want a frame stream", resp.Header.Get("Content-Type"))
	}

	sc := wire.NewScanner(resp.Body)
	typ, raw, err := sc.Next()
	if err != nil || typ != wire.TypePairs {
		t.Fatalf("first frame: type %v, err %v; want relayed pairs", typ, err)
	}
	if !bytes.Equal(raw, corrupt) {
		t.Fatalf("router modified the relayed frame:\n got %x\nwant %x", raw, corrupt)
	}
	if err := wire.Verify(raw); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("relayed CRC verifies as %v — the router must have re-encoded the payload", err)
	}
	typ, raw, err = sc.Next()
	if err != nil || typ != wire.TypeSummary {
		t.Fatalf("second frame: type %v, err %v; want the merged summary", typ, err)
	}
	var merged client.JoinSummary
	if err := json.Unmarshal(raw[wire.HeaderSize:], &merged); err != nil || merged.Pairs != 1 {
		t.Fatalf("merged summary: %+v, err %v", merged, err)
	}
	if typ, _, err = sc.Next(); err != nil || typ != wire.TypeEnd {
		t.Fatalf("third frame: type %v, err %v; want end", typ, err)
	}
}

// TestNDJSONEdgeRejectsCorruptFrame pins the NDJSON edge's integrity
// check: the router decodes shard frames for an NDJSON client, so it
// must CRC-check each one first. A frame with a broken CRC (the
// TestRouterRelayZeroDecode fixture) fails the query in the
// internal-error class with none of its entries written — as an HTTP
// error when it is the first frame, as a terminal error line after a
// good frame has already streamed.
func TestNDJSONEdgeRejectsCorruptFrame(t *testing.T) {
	pairPayload := func(l, r uint32) []byte {
		var cell [wire.PairSize]byte
		geom.EncodePair(cell[:], geom.Pair{Left: l, Right: r})
		return cell[:]
	}
	recPayload := func(id uint32) []byte {
		var cell [wire.RecordSize]byte
		geom.EncodeRecord(cell[:], geom.Record{Rect: geom.NewRect(1, 1, 2, 2), ID: id})
		return cell[:]
	}
	win := client.Rect{XLo: 0, YLo: 0, XHi: 10, YHi: 10}
	for _, kind := range []string{"join", "window"} {
		for _, lead := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lead=%v", kind, lead), func(t *testing.T) {
				typ, good, bad := wire.TypePairs, pairPayload(1, 2), pairPayload(7, 9)
				var sum any = &client.JoinSummary{Left: "a", Right: "b", Algorithm: "PQ", Pairs: 2}
				if kind == "window" {
					typ, good, bad = wire.TypeRecords, recPayload(1), recPayload(7)
					sum = &client.WindowSummary{Relation: "a", Records: 2}
				}
				sumJSON, err := json.Marshal(sum)
				if err != nil {
					t.Fatal(err)
				}
				var body []byte
				if lead {
					body = wire.AppendFrame(body, typ, good)
				}
				corrupt := wire.AppendFrame(nil, typ, bad)
				corrupt[wire.OffCRC] ^= 0xA5
				body = append(body, corrupt...)
				body = wire.AppendFrame(body, wire.TypeSummary, sumJSON)
				body = wire.AppendFrame(body, wire.TypeEnd, nil)

				router, err := shard.NewRouter([]string{frameShardStub(t, body)}, nil)
				if err != nil {
					t.Fatal(err)
				}
				svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
				front := httptest.NewServer(svc.Handler())
				t.Cleanup(front.Close)
				ncl := client.New(front.URL, nil)

				var got []uint32
				if kind == "join" {
					_, err = ncl.Join(context.Background(), client.JoinRequest{Left: "a", Right: "b"},
						func(l, r uint32) { got = append(got, l) })
				} else {
					_, err = ncl.Window(context.Background(), client.WindowRequest{Relation: "a", Window: &win},
						func(r client.RecordOut) { got = append(got, r.ID) })
				}
				if !errors.Is(err, client.ErrInternal) {
					t.Fatalf("corrupt frame error = %v, want the ErrInternal class", err)
				}
				want := []uint32(nil)
				if lead {
					// The good frame streamed, so the HTTP status was
					// already sent: the error arrived as the last line.
					want = []uint32{1}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("streamed %v, want %v: the corrupt frame's entries leaked", got, want)
				}
			})
		}
	}
}

// TestRouterRejectsNDJSONShard pins the end of the mixed-fleet
// fallback: router→shard legs are always frames, so a shard that
// answers NDJSON is a broken peer. The query fails with a typed 502
// naming the shard, for NDJSON and binary clients alike — never an
// empty or partial answer.
func TestRouterRejectsNDJSONShard(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		// An old shard: ignores Accept, always answers NDJSON.
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"pairs":[[1,2],[3,4]]}`+"\n")
		io.WriteString(w, `{"summary":{"left":"a","right":"b","algorithm":"PQ","pairs":2,"left_records":2,"right_records":2,"elapsed_ms":1}}`+"\n")
	})
	mux.HandleFunc("POST /v1/window", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"records":[{"id":1,"rect":{"xlo":1,"ylo":1,"xhi":2,"yhi":2}}]}`+"\n")
		io.WriteString(w, `{"summary":{"relation":"a","records":1,"elapsed_ms":1}}`+"\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	router, err := shard.NewRouter([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)

	win := client.Rect{XLo: 0, YLo: 0, XHi: 10, YHi: 10}
	for _, binary := range []bool{false, true} {
		cl := client.New(front.URL, nil)
		cl.PreferBinary = binary
		streamed := 0
		jsum, jerr := cl.Join(context.Background(), client.JoinRequest{Left: "a", Right: "b"},
			func(l, r uint32) { streamed++ })
		wsum, werr := cl.Window(context.Background(), client.WindowRequest{Relation: "a", Window: &win},
			func(client.RecordOut) { streamed++ })
		for _, err := range []error{jerr, werr} {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway || !errors.Is(err, client.ErrUnavailable) {
				t.Fatalf("binary=%v: NDJSON shard error = %v, want a typed 502", binary, err)
			}
			if !strings.Contains(err.Error(), ts.URL) {
				t.Fatalf("binary=%v: error %q does not name the shard %s", binary, err, ts.URL)
			}
		}
		if jsum != nil || wsum != nil || streamed != 0 {
			t.Fatalf("binary=%v: NDJSON shard produced an answer: join %+v, window %+v, %d entries streamed",
				binary, jsum, wsum, streamed)
		}
	}
}

// TestMidStreamShardFailureBinary pins the failure contract of the
// relay path: when a shard dies after the router has already relayed
// DATA frames, the front must close its response with a well-formed
// ERROR frame (mapping to the internal-error class) and END — never a
// silently truncated stream.
func TestMidStreamShardFailureBinary(t *testing.T) {
	goodFrame := wire.AppendFrame(nil, wire.TypePairs, []byte{1, 0, 0, 0, 2, 0, 0, 0})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(goodFrame)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Die mid-frame: a header fragment, then the connection ends.
		w.Write([]byte{wire.Magic0, wire.Magic1, wire.Version})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	router, err := shard.NewRouter([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)

	// Raw inspection first: the front's stream must decode cleanly
	// frame by frame and terminate DATA… ERROR END.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/join",
		bytes.NewReader([]byte(`{"left":"a","right":"b"}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := wire.NewDecoder(resp.Body)
	var types []wire.Type
	var apiErr client.APIError
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("front stream is not well-formed after shard failure: %v", err)
		}
		types = append(types, f.Type)
		if f.Type == wire.TypeError {
			if err := json.Unmarshal(f.Payload, &apiErr); err != nil {
				t.Fatalf("bad ERROR frame payload: %v", err)
			}
		}
	}
	if len(types) < 3 || types[0] != wire.TypePairs ||
		types[len(types)-2] != wire.TypeError || types[len(types)-1] != wire.TypeEnd {
		t.Fatalf("frame sequence %v; want pairs… error end", types)
	}
	if apiErr.Code == "" {
		t.Fatal("ERROR frame carried no error code")
	}

	// And through the decoding client: relayed pairs arrive, then the
	// typed error, matching the internal-error class.
	bcl := client.New(front.URL, nil)
	bcl.PreferBinary = true
	var pairs int
	_, err = bcl.Join(context.Background(), client.JoinRequest{Left: "a", Right: "b"},
		func(l, r uint32) { pairs++ })
	if err == nil {
		t.Fatal("mid-stream shard failure surfaced no error")
	}
	if !errors.Is(err, client.ErrInternal) {
		t.Fatalf("mid-stream failure error = %v, want the ErrInternal class", err)
	}
	if pairs != 1 {
		t.Fatalf("relayed %d pairs before the failure, want 1", pairs)
	}
}

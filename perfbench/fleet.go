package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/server"
	"unijoin/internal/shard"
)

// relSpec is one relation a set-up loads.
type relSpec struct {
	name  string
	recs  []unijoin.Record
	index bool
	// join marks the relations the shard plan balances on.
	join bool
}

// setupCost is what one set-up spent in the ingest and rtree layers.
type setupCost struct {
	loadMs, buildMs float64
}

// loadCatalog loads rels (sliced to iv when set) into a fresh catalog
// over universe u, timing Catalog.Load and Relation.BuildIndex
// separately.
func loadCatalog(tr *tracer, op int64, u unijoin.Rect, iv *shard.Interval, rels []relSpec, cost *setupCost) (*unijoin.Catalog, error) {
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(u)
	cat := unijoin.NewCatalogOn(ws)
	for _, rs := range rels {
		recs := rs.recs
		if iv != nil {
			recs = iv.Slice(recs)
		}
		start := time.Now()
		rel, err := cat.Load(rs.name, recs, false)
		loaded := time.Now()
		tr.record(op, 0, "ingest", "Catalog.Load "+rs.name, start, loaded)
		cost.loadMs += msSince(start, loaded)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", rs.name, err)
		}
		if rs.index {
			if err := rel.BuildIndex(); err != nil {
				return nil, fmt.Errorf("index %s: %w", rs.name, err)
			}
			built := time.Now()
			tr.record(op, 0, "rtree", "Relation.BuildIndex "+rs.name, loaded, built)
			cost.buildMs += msSince(loaded, built)
		}
	}
	return cat, nil
}

// fleet is one booted serving topology: a direct sjserved, or a
// router in front of striped shards, all in this process.
type fleet struct {
	url     string
	servers []*httptest.Server
	// cats are the served catalogs: one for a direct server, one per
	// shard for a routed fleet.
	cats []*unijoin.Catalog
}

func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// bootFleet loads the catalogs, starts the servers (and the router when
// shards > 0) and waits until the front accepts a request. The
// returned duration is the program's set-up time.
func bootFleet(tr *tracer, hc *http.Client, rels []relSpec, shards int) (*fleet, time.Duration, setupCost, error) {
	var cost setupCost
	op := tr.newOp()
	start := time.Now()
	f := &fleet{}
	if shards == 0 {
		cat, err := loadCatalog(tr, op, refUniverse, nil, rels, &cost)
		if err != nil {
			return nil, 0, cost, err
		}
		f.cats = []*unijoin.Catalog{cat}
		tr.timed(op, 0, "server", "server.New", func() {
			f.servers = append(f.servers, httptest.NewServer(server.New(server.Config{Catalog: cat, Logger: quietLog}).Handler()))
		})
		f.url = f.servers[0].URL
	} else {
		var planOn [][]unijoin.Record
		for _, rs := range rels {
			if rs.join {
				planOn = append(planOn, rs.recs)
			}
		}
		plan := shard.NewPlan(refUniverse, shards, planOn...)
		urls := make([]string, plan.Shards())
		for i := range urls {
			iv := plan.Interval(i)
			cat, err := loadCatalog(tr, op, refUniverse, &iv, rels, &cost)
			if err != nil {
				f.close()
				return nil, 0, cost, err
			}
			f.cats = append(f.cats, cat)
			tr.timed(op, 0, "server", "server.New shard", func() {
				ts := httptest.NewServer(server.New(server.Config{Catalog: cat, Logger: quietLog, Stripe: &iv}).Handler())
				f.servers = append(f.servers, ts)
				urls[i] = ts.URL
			})
		}
		var err error
		tr.timed(op, 0, "shard", "shard.NewRouter", func() {
			var router *shard.Router
			if router, err = shard.NewRouter(urls, hc); err == nil {
				ts := httptest.NewServer(shard.NewService(shard.ServiceConfig{Router: router, Logger: quietLog}).Handler())
				f.servers = append(f.servers, ts)
				f.url = ts.URL
			}
		})
		if err != nil {
			f.close()
			return nil, 0, cost, err
		}
	}
	var err error
	tr.timed(op, 0, "client", "client.Health", func() {
		err = client.New(f.url, hc).Health(context.Background())
	})
	if err != nil {
		f.close()
		return nil, 0, cost, fmt.Errorf("health: %w", err)
	}
	return f, time.Since(start), cost, nil
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e6 }

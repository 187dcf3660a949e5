package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/value"
)

// coldWAL is the number of logged commits behind the checkpoint. Replay
// applies each record to the full-size table, so this fixes how much of
// the reopen is replay; it is not reduced to hide that cost.
const coldWAL = 60

// coldEnv is a storage directory holding a checkpoint of a 20k-row
// table plus coldWAL mixed insert/update/delete commits, and the model
// of what it must recover to.
type coldEnv struct {
	dir   string
	gen   uint64
	model *oltpModel
}

func (e *coldEnv) close() { _ = os.RemoveAll(e.dir) } // scratch directory; a leftover is harmless

func buildCold(cfg config, rep int) (*coldEnv, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("cold-seed%d-%d-%d", cfg.seed, os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(cfg.seed, 0x636f6c64))
	m := newOLTPModel(0, r)
	env := &coldEnv{dir: dir, model: m}
	db, err := engine.OpenDurable(dir, durableOpts, m.relation())
	if err != nil {
		env.close()
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < coldWAL; i++ {
		switch i % 3 {
		case 0:
			k, v := m.next, r.Int64N(1<<40)
			_, err = db.Exec(ctx, engine.LangSQL, m.sql.ins, k, v)
			m.next++
			m.put(k, v)
		case 1:
			k, v := m.pick(r), r.Int64N(1<<40)
			_, err = db.Exec(ctx, engine.LangSQL, m.sql.upd, k, v)
			m.put(k, v)
		default:
			k := m.pick(r)
			_, err = db.Exec(ctx, engine.LangSQL, m.sql.del, k)
			m.del(k)
		}
		if err != nil {
			_ = db.Close() // the commit error is the one reported
			env.close()
			return nil, err
		}
	}
	env.gen = db.Generation()
	if err := db.Close(); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// reopen recovers the directory and checks what it recovered: always
// the generation, record count and row count, and with full every row.
// The caller closes the returned DB.
func (e *coldEnv) reopen(res *result, tr *tracer, op uint64, full bool) (time.Duration, *engine.DB, error) {
	root := tr.begin("cold.reopen", op, -1)
	defer tr.end(root)
	sp := tr.begin("engine.OpenDurable", op, root)
	start := time.Now()
	db, err := engine.OpenDurable(e.dir, durableOpts)
	el := time.Since(start)
	tr.end(sp)
	res.attempted++
	if err != nil {
		res.fail("reopen: %v", err)
		return el, nil, err
	}
	rs, _ := db.RecoveryStats()
	rows := 0
	if rel := db.Relation(e.model.table); rel != nil {
		rows = rel.Card()
	}
	switch {
	case rs.Gen != e.gen || rs.Records != coldWAL || rows != len(e.model.keys):
		res.fail("recovered generation %d, %d records, %d rows; want %d, %d, %d",
			rs.Gen, rs.Records, rows, e.gen, coldWAL, len(e.model.keys))
	case full:
		if err := e.model.verify(db); err != nil {
			res.fail("recovered content: %v", err)
		}
	}
	return el, db, nil
}

func runColdStart(cfg config) (*result, error) {
	res := newResult()
	env, err := buildMedian(cfg, res, func(rep int) (*coldEnv, error) { return buildCold(cfg, rep) }, (*coldEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if cfg.corrupt {
		env.gen++ // expect a generation the store never reached
	}
	size, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	res.reportf("disk_bytes_per_row=%.4g (%d bytes, %d rows, %d WAL records behind the checkpoint)",
		float64(size)/float64(len(env.model.keys)), size, len(env.model.keys), coldWAL)

	// loop reopens until the deadline; with tr != nil it also times the
	// first point read each recovered store serves and sums the statement
	// cache counters of every recovered store.
	var prepares, cacheHits uint64
	loop := func(seconds float64, tr *tracer) (samples, []float64, time.Duration, error) {
		var lat samples
		var replay []float64
		start := time.Now()
		end := deadline(seconds)
		for op := uint64(0); time.Now().Before(end); op++ {
			// A real cold start runs in a fresh process: collect the
			// previous store's garbage first, so no reopen pays for it.
			runtime.GC()
			el, db, err := env.reopen(res, tr, op, op == 0)
			if err != nil {
				return nil, nil, 0, err
			}
			lat = append(lat, el)
			rs, _ := db.RecoveryStats()
			replay = append(replay, rs.Duration.Seconds())
			if tr != nil {
				if err := coldRead(res, tr, db, env.model, op); err != nil {
					return nil, nil, 0, err
				}
				st := db.Stats()
				prepares += st.Prepares
				cacheHits += st.CacheHits
			}
			sp := tr.begin("engine.DB.Close", op, -1)
			err = db.Close()
			tr.end(sp)
			if err != nil {
				return nil, nil, 0, err
			}
		}
		return lat, replay, time.Since(start), nil
	}

	if _, _, _, err := loop(warmup(cfg), nil); err != nil {
		return nil, err
	}
	if !cfg.trace {
		lat, _, elapsed, err := loop(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		recordLatency(res, lat, elapsed)
		res.reportf("recovery_s=%.4g s (median OpenDurable of %d)", median(secs(lat)), len(lat))
		// The live heap of one recovered store.
		_, db, err := env.reopen(res, nil, 0, false)
		if err != nil {
			return nil, err
		}
		res.metrics["heap_mb"] = heapMB()
		runtime.KeepAlive(db)
		res.reportf("heap_mb=%.4g MB", res.metrics["heap_mb"])
		return res, db.Close()
	}

	untraced, _, untracedEl, err := loop(cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tr := newTracer(true, t0)
	traced, replay, tracedEl, err := loop(cfg.seconds/2, tr)
	if err != nil {
		return nil, err
	}
	traceOverhead(res, len(traced), tracedEl, len(untraced), untracedEl)
	_, db, err := env.reopen(res, tr, uint64(len(traced)), false)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rs, _ := db.RecoveryStats()
	recoveryLayers(res, db, rs)
	res.metrics["storage.replay_records_per_s"] = ratio(float64(rs.Records), median(replay))
	totals := spanTotals(tr.spans)
	q := totals["engine.Stmt.QueryAll"]
	res.metrics["engine.queries"] = float64(q.n)
	res.metrics["engine.query_us"] = ratio(us(q.dur), float64(q.n))
	pr := totals["engine.DB.Prepare"]
	res.metrics["engine.prepares"] = float64(prepares)
	res.metrics["engine.prepare_us"] = ratio(us(pr.dur), float64(pr.n))
	res.metrics["engine.cache_hit_ratio"] = ratio(float64(cacheHits), float64(prepares))
	r := rand.New(rand.NewPCG(cfg.seed, 8))
	var keys []value.Value
	for i := 0; i < 20000; i++ {
		keys = append(keys, value.Int(env.model.pick(r)))
	}
	relationProbes(res, db.Relation(env.model.table), 0, keys, value.Int(-1))
	res.spans = tr.spans
	reportSelfTimes(res, res.spans)
	reportTargets(res)
	zeroLayers(res)
	return res, nil
}

// coldRead times the first point read a freshly recovered store serves,
// which builds the hash index recovery does not.
func coldRead(res *result, tr *tracer, db *engine.DB, m *oltpModel, op uint64) error {
	k := m.keys[int(op)%len(m.keys)]
	sp := tr.begin("engine.DB.Prepare", op, -1)
	st, err := db.Prepare(engine.LangSQL, m.sql.get)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("engine.Stmt.QueryAll", op, -1)
	got, err := st.QueryAll(context.Background(), k)
	tr.end(sp)
	res.attempted++
	if err != nil {
		res.fail("first read: %v", err)
		return nil
	}
	if got.Card() != 1 || !got.Contains(relation.Tuple{value.Int(k), value.Int(m.val[k])}) {
		res.fail("first read of key %d after recovery: wrong result", k)
	}
	return nil
}

func secs(s samples) []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = d.Seconds()
	}
	return out
}

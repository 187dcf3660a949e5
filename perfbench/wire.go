package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/value"
)

const (
	wireRows     = 100_000
	wireSessions = 2
	wireRange    = 100
	// wirePool is the one-shot text pool: larger than the engine's
	// 128-entry statement cache, so prepares and evictions show.
	wirePool = 4 * engine.DefaultStmtCacheSize

	wirePointSQL = "select R.K, R.V from R where R.K = $1"
	wireRangeSQL = "select R.K, R.V from R where R.K >= $1 and R.K < $2"
)

// wireData is the seeded content of table R(K, V): keys 0..wireRows-1,
// V a seeded affine function of K, so any row can be checked without a
// lookup table.
type wireData struct {
	mul, add uint64
	perm     uint64 // key permutation multiplier, coprime to wireRows
	pool     []int64
}

func newWireData(seed uint64) wireData {
	r := rand.New(rand.NewPCG(seed, 0x77697265))
	d := wireData{mul: r.Uint64N(1<<30) | 1, add: r.Uint64N(1 << 30)}
	for {
		d.perm = r.Uint64N(wireRows-1) + 1
		if d.perm%2 != 0 && d.perm%5 != 0 {
			break
		}
	}
	for i := 0; i < wirePool; i++ {
		d.pool = append(d.pool, r.Int64N(wireRows))
	}
	return d
}

func (d wireData) v(k int64) int64 { return int64((uint64(k)*d.mul + d.add) % 1_000_000_007) }

func (d wireData) relation() *relation.Relation {
	r := relation.New("R", "K", "V")
	for k := int64(0); k < wireRows; k++ {
		r.Insert(relation.Tuple{value.Int(k), value.Int(d.v(k))})
	}
	return r
}

// checkRows verifies a result holds exactly the keys [lo, hi) with
// their values.
func (d wireData) checkRows(rows [][]value.Value, lo, hi int64) bool {
	if int64(len(rows)) != hi-lo {
		return false
	}
	seen := make(map[int64]bool, len(rows))
	for _, row := range rows {
		if len(row) != 2 {
			return false
		}
		k := row[0].AsInt()
		if k < lo || k >= hi || seen[k] || row[1].AsInt() != d.v(k) {
			return false
		}
		seen[k] = true
	}
	return true
}

type wireSession struct {
	conn       *client.Conn
	point, rng *client.Stmt
	zipf       *rand.Zipf
	r          *rand.Rand
	lat        samples
	classes    [3]samples
	clientTime time.Duration
	res        *result // this session's counters, merged by collect
}

type wireEnv struct {
	db       *engine.DB
	srv      *server.Server
	sessions []*wireSession
	data     wireData
}

func (e *wireEnv) close() {
	for _, s := range e.sessions {
		s.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // the run is over; a slow drain only delays exit
}

func buildWire(cfg config, data wireData) (*wireEnv, error) {
	db := engine.Open(data.relation())
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	env := &wireEnv{db: db, srv: srv, data: data}
	for i := 0; i < wireSessions; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			env.close()
			return nil, err
		}
		s := &wireSession{conn: c, res: newResult()}
		env.sessions = append(env.sessions, s)
		if s.point, err = c.Prepare(client.LangSQL, wirePointSQL); err != nil {
			env.close()
			return nil, err
		}
		if s.rng, err = c.Prepare(client.LangSQL, wireRangeSQL); err != nil {
			env.close()
			return nil, err
		}
		s.r = rand.New(rand.NewPCG(cfg.seed, uint64(i)+1))
		s.zipf = rand.NewZipf(s.r, 1.1, 1, wireRows-1)
	}
	// Warm the lazily built hash and ordered indexes: a deployed server
	// has them, and the first query would otherwise bill their build.
	s := env.sessions[0]
	if _, err := s.point.QueryAll(value.Int(0)); err != nil {
		env.close()
		return nil, err
	}
	if _, err := s.rng.QueryAll(value.Int(0), value.Int(wireRange)); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// key draws a Zipf-distributed key spread over the table by the
// seeded permutation, so hot keys are not clustered.
func (s *wireSession) key(d wireData) int64 {
	return int64((s.zipf.Uint64() * d.perm) % wireRows)
}

// step runs one operation: 85% prepared point lookup, 10% range scan,
// 5% one-shot Conn.Query of a pooled literal text.
func (s *wireSession) step(d wireData, tr *tracer, op uint64, corrupt bool) {
	u := s.r.Float64()
	var class int
	var name string
	var lo, hi int64
	var run func() ([][]value.Value, error)
	switch {
	case u < 0.05:
		class, name = 2, "client.Conn.Query"
		lo = d.pool[s.r.IntN(len(d.pool))]
		hi = lo + 1
		src := fmt.Sprintf("select R.K, R.V from R where R.K = %d", lo)
		run = func() ([][]value.Value, error) {
			rows, _, err := s.conn.Query(client.LangSQL, src)
			return rows, err
		}
	case u < 0.15:
		class, name = 1, "client.Stmt.QueryAll(range)"
		lo = s.r.Int64N(wireRows - wireRange + 1)
		hi = lo + wireRange
		run = func() ([][]value.Value, error) { return s.rng.QueryAll(value.Int(lo), value.Int(hi)) }
	default:
		name = "client.Stmt.QueryAll(point)"
		lo = s.key(d)
		hi = lo + 1
		run = func() ([][]value.Value, error) { return s.point.QueryAll(value.Int(lo)) }
	}
	root := tr.begin("wire.op", op, -1)
	sp := tr.begin(name, op, root)
	start := time.Now()
	rows, err := run()
	el := time.Since(start)
	tr.end(sp)
	tr.end(root)
	s.res.attempted++
	s.clientTime += el
	if corrupt && op == 0 {
		hi++ // expect one row too many
	}
	switch {
	case err != nil:
		s.res.fail("wire op: %v", err)
		return
	case !d.checkRows(rows, lo, hi):
		s.res.fail("wire op %s [%d,%d): %d rows, wrong", name, lo, hi, len(rows))
		return
	}
	s.lat = append(s.lat, el)
	s.classes[class] = append(s.classes[class], el)
}

// loop runs every session closed-loop until the deadline and returns
// the measured wall time.
func (e *wireEnv) loop(seconds float64, tracers []*tracer, corrupt bool) time.Duration {
	start := time.Now()
	end := deadline(seconds)
	var wg sync.WaitGroup
	for i, s := range e.sessions {
		wg.Add(1)
		go func(i int, s *wireSession) {
			defer wg.Done()
			for op := uint64(0); time.Now().Before(end); op++ {
				s.step(e.data, tracers[i], op, corrupt && i == 0)
			}
		}(i, s)
	}
	wg.Wait()
	return time.Since(start)
}

func (e *wireEnv) collect(res *result) (all samples, classes [3]samples, client time.Duration) {
	for _, s := range e.sessions {
		all = append(all, s.lat...)
		for c := range classes {
			classes[c] = append(classes[c], s.classes[c]...)
		}
		client += s.clientTime
		res.absorb(s.res)
		s.lat, s.classes, s.clientTime = nil, [3]samples{}, 0
		s.res = newResult()
	}
	return all, classes, client
}

func runWirePoint(cfg config) (*result, error) {
	res := newResult()
	data := newWireData(cfg.seed)
	env, err := buildMedian(cfg, res, func(int) (*wireEnv, error) { return buildWire(cfg, data) }, (*wireEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	env.loop(warmup(cfg), make([]*tracer, wireSessions), false)
	env.collect(res)

	if !cfg.trace {
		elapsed := env.loop(cfg.seconds, make([]*tracer, wireSessions), cfg.corrupt)
		all, classes, _ := env.collect(res)
		recordLatency(res, all, elapsed)
		for c, name := range []string{"point", "range", "oneshot"} {
			classLatency(res, name, classes[c])
		}
		res.metrics["heap_mb"] = heapMB()
		res.reportf("heap_mb=%.4g MB", res.metrics["heap_mb"])
		return res, nil
	}

	// Traced run: half the time untraced, half traced, so the overhead
	// ratio compares like with like; layer counters are read around the
	// traced half only.
	untracedEl := env.loop(cfg.seconds/2, make([]*tracer, wireSessions), cfg.corrupt)
	untraced, _, _ := env.collect(res)
	t0 := time.Now()
	tracers := make([]*tracer, wireSessions)
	for i := range tracers {
		tracers[i] = newTracer(true, t0)
	}
	snap0 := env.srv.Snapshot()
	tracedEl := env.loop(cfg.seconds/2, tracers, false)
	snap1 := env.srv.Snapshot()
	traced, _, clientTime := env.collect(res)
	queries := float64(snap1.QueryCount - snap0.QueryCount)
	engineMs := snap1.QuerySumMs - snap0.QuerySumMs
	res.metrics["server.queries"] = queries
	res.metrics["server.roundtrip_us"] = ratio(us(clientTime)-engineMs*1000, float64(len(traced)))
	res.metrics["server.frames_per_op"] = ratio(float64(snap1.FramesRead+snap1.FramesWritten-snap0.FramesRead-snap0.FramesWritten), float64(len(traced)))
	batches := float64(snap1.FetchBatches - snap0.FetchBatches)
	res.metrics["server.fetch_batches"] = batches
	res.metrics["server.rows_per_fetch_batch"] = ratio(float64(snap1.RowsStreamed-snap0.RowsStreamed), batches)
	traceOverhead(res, len(traced), tracedEl, len(untraced), untracedEl)

	// In-process layers on the same statements and table.
	probe := newTracer(true, t0)
	r := rand.New(rand.NewPCG(cfg.seed, 99))
	z := rand.NewZipf(r, 1.1, 1, wireRows-1)
	var args [][]any
	var keys []value.Value
	for i := 0; i < 20000; i++ {
		k := int64((z.Uint64() * data.perm) % wireRows)
		args = append(args, []any{k})
		keys = append(keys, value.Int(k))
	}
	st, err := env.db.Prepare(engine.LangSQL, wirePointSQL)
	if err != nil {
		return nil, err
	}
	engineQueryProbe(res, probe, st, args, func(i int, rel *relation.Relation) bool {
		k := args[i][0].(int64)
		return rel.Card() == 1 && rel.Contains(relation.Tuple{value.Int(k), value.Int(data.v(k))})
	})
	var texts []prepText
	for i := 0; i < 2000; i++ {
		texts = append(texts, prepText{engine.LangSQL, fmt.Sprintf("select R.K, R.V from R where R.K = %d", data.pool[r.IntN(len(data.pool))])})
	}
	enginePrepareProbe(res, probe, env.db, texts)
	relationProbes(res, env.db.Relation("R"), 0, keys, value.Int(wireRows))
	res.spans = merged(append(tracers, probe)...)
	reportSelfTimes(res, res.spans)
	reportTargets(res)
	zeroLayers(res)
	return res, nil
}

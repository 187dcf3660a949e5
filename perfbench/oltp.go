package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

const (
	oltpSessions = 2
	// oltpLive is each session's table size. Balanced insert/delete
	// churn holds it constant and the table is never truncated or
	// reset, so commit cost reflects the full-size table.
	oltpLive = 20_000
	// oltpCheckpointEvery is the checkpoint interval in acknowledged
	// commits, counted rather than timed so it is deterministic.
	oltpCheckpointEvery = 200
	oltpTxShare         = 0.08
	oltpReadShare       = 0.6 // share of autocommit writes followed by a read of the key
	// oltpContention is how many same-value updates each session makes
	// to one shared table in the traced run's contention probe.
	oltpContention = 40
)

// durableOpts is the flush policy of every durable workload: fsync on
// each commit, the kill -9 guarantee.
var durableOpts = storage.Options{Fsync: true}

// oltpSQL holds one session's statement texts over its own table.
type oltpSQL struct {
	ins, upd, del, get, all string
}

func newOLTPSQL(table string) oltpSQL {
	return oltpSQL{
		ins: fmt.Sprintf("insert into %s values ($1, $2)", table),
		upd: fmt.Sprintf("update %[1]s set V = $2 where %[1]s.K = $1", table),
		del: fmt.Sprintf("delete from %[1]s where %[1]s.K = $1", table),
		get: fmt.Sprintf("select %[1]s.K, %[1]s.V from %[1]s where %[1]s.K = $1", table),
		all: fmt.Sprintf("select %[1]s.K, %[1]s.V from %[1]s", table),
	}
}

// oltpModel is one session's table as the benchmark expects it.
type oltpModel struct {
	table string
	sql   oltpSQL
	val   map[int64]int64
	keys  []int64 // live keys, for uniform choice
	pos   map[int64]int
	next  int64 // next fresh key
}

func newOLTPModel(session int, r *rand.Rand) *oltpModel {
	table := fmt.Sprintf("T%d", session)
	m := &oltpModel{table: table, sql: newOLTPSQL(table), val: map[int64]int64{}, pos: map[int64]int{}}
	for k := int64(0); k < oltpLive; k++ {
		m.put(k, r.Int64N(1<<40))
	}
	m.next = oltpLive
	return m
}

func (m *oltpModel) put(k, v int64) {
	if _, ok := m.val[k]; !ok {
		m.pos[k] = len(m.keys)
		m.keys = append(m.keys, k)
	}
	m.val[k] = v
}

func (m *oltpModel) del(k int64) {
	i := m.pos[k]
	last := m.keys[len(m.keys)-1]
	m.keys[i] = last
	m.pos[last] = i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.pos, k)
	delete(m.val, k)
}

func (m *oltpModel) pick(r *rand.Rand) int64 { return m.keys[r.IntN(len(m.keys))] }

func (m *oltpModel) relation() *relation.Relation {
	t := relation.New(m.table, "K", "V")
	for _, k := range m.keys {
		t.Insert(relation.Tuple{value.Int(k), value.Int(m.val[k])})
	}
	return t
}

// verify compares the model's table in db with the model.
func (m *oltpModel) verify(db *engine.DB) error {
	got, err := db.QueryAll(context.Background(), engine.LangSQL, m.sql.all)
	if err != nil {
		return err
	}
	if got.Card() != len(m.keys) {
		return fmt.Errorf("%s has %d rows, the model %d", m.table, got.Card(), len(m.keys))
	}
	for k, v := range m.val {
		if !got.Contains(relation.Tuple{value.Int(k), value.Int(v)}) {
			return fmt.Errorf("%s: acknowledged row (%d, %d) missing", m.table, k, v)
		}
	}
	return nil
}

type oltpEnv struct {
	dir       string
	db        *engine.DB
	sessions  []*oltpSession
	commits   atomic.Int64
	ckptMu    sync.Mutex
	ckptTimes []float64
}

func (e *oltpEnv) close() {
	if e.db != nil {
		_ = e.db.Close() // teardown of a discarded or finished build
	}
	_ = os.RemoveAll(e.dir) // scratch directory; a leftover is harmless
}

// oltpSession is one closed-loop caller. Each session owns one table:
// relations are the engine's unit of write conflict, so disjoint keys
// in one shared table would still conflict (see the contention probe).
type oltpSession struct {
	env           *oltpEnv
	sess          *engine.Session
	model         *oltpModel
	ins, upd, del *engine.Stmt
	r             *rand.Rand
	tr            *tracer
	commit        samples // autocommit acknowledgements
	raw           samples // reads of the key just written
	tx            samples // multi-row transactions, retries included
	all           samples
	res           *result // this session's counters, merged after the loop
	retries       int64   // conflicts the benchmark itself retried
	op            uint64
}

func buildOLTP(cfg config, rep int) (*oltpEnv, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("oltp-seed%d-%d-%d", cfg.seed, os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	env := &oltpEnv{dir: dir}
	var rels []*relation.Relation
	for i := 0; i < oltpSessions; i++ {
		r := rand.New(rand.NewPCG(cfg.seed, 0x6f6c7470+uint64(i)))
		m := newOLTPModel(i, r)
		env.sessions = append(env.sessions, &oltpSession{env: env, model: m, r: r})
		rels = append(rels, m.relation())
	}
	db, err := engine.OpenDurable(dir, durableOpts, rels...)
	if err != nil {
		env.close()
		return nil, err
	}
	env.db = db
	for _, s := range env.sessions {
		s.sess = db.NewSession()
		for _, p := range []struct {
			dst **engine.Stmt
			src string
		}{{&s.ins, s.model.sql.ins}, {&s.upd, s.model.sql.upd}, {&s.del, s.model.sql.del}} {
			if *p.dst, err = db.Prepare(engine.LangSQL, p.src); err != nil {
				env.close()
				return nil, err
			}
		}
		// Build the lazy hash index the point reads probe.
		if _, err := db.QueryAll(context.Background(), engine.LangSQL, s.model.sql.get, int64(0)); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// acked counts one acknowledged commit and checkpoints every
// oltpCheckpointEvery of them.
func (s *oltpSession) acked(parent int) {
	if s.env.commits.Add(1)%oltpCheckpointEvery != 0 {
		return
	}
	sp := s.tr.begin("engine.DB.Checkpoint", s.op, parent)
	start := time.Now()
	err := s.env.db.Checkpoint()
	el := time.Since(start)
	s.tr.end(sp)
	if err != nil {
		s.res.fail("checkpoint: %v", err)
		return
	}
	s.env.ckptMu.Lock()
	s.env.ckptTimes = append(s.env.ckptTimes, ms(el))
	s.env.ckptMu.Unlock()
}

// exec runs an autocommit statement, retrying when the engine's own
// conflict retries are exhausted, as an application would.
func (s *oltpSession) exec(ctx context.Context, st *engine.Stmt, parent int, args ...any) error {
	for {
		sp := s.tr.begin("engine.Stmt.Exec", s.op, parent)
		_, err := st.Exec(ctx, args...)
		s.tr.end(sp)
		if !errors.Is(err, engine.ErrConflict) {
			return err
		}
		s.retries++
	}
}

func (s *oltpSession) step(ctx context.Context) {
	m := s.model
	s.op++
	root := s.tr.begin("oltp.step", s.op, -1)
	defer s.tr.end(root)
	if s.r.Float64() < oltpTxShare {
		s.txStep(ctx, root)
		return
	}
	// Balanced churn: inserts and deletes alternate around the target
	// size, updates are drawn freely.
	var kind int // 0 insert, 1 update, 2 delete
	switch u := s.r.Float64(); {
	case len(m.keys) < oltpLive:
		kind = 0
	case len(m.keys) > oltpLive:
		kind = 2
	case u < 0.4:
		kind = 1
	case u < 0.7:
		kind = 0
	default:
		kind = 2
	}
	var k, v int64
	var err error
	start := time.Now()
	switch kind {
	case 0:
		k, v = m.next, s.r.Int64N(1<<40)
		err = s.exec(ctx, s.ins, root, k, v)
	case 1:
		k, v = m.pick(s.r), s.r.Int64N(1<<40)
		err = s.exec(ctx, s.upd, root, k, v)
	case 2:
		k = m.pick(s.r)
		err = s.exec(ctx, s.del, root, k)
	}
	el := time.Since(start)
	s.res.attempted++
	if err != nil {
		s.res.fail("write %d key %d: %v", kind, k, err)
		return
	}
	s.commit = append(s.commit, el)
	s.all = append(s.all, el)
	switch kind {
	case 0:
		m.next++
		m.put(k, v)
	case 1:
		m.put(k, v)
	case 2:
		m.del(k)
	}
	s.acked(root)
	if s.r.Float64() < oltpReadShare {
		s.readBack(ctx, root, k)
	}
}

// readBack reads the key just written. A prepared statement reads the
// snapshot it was compiled under, so a read of fresh data goes through
// DB.Prepare: the statement cache revalidates against the new
// generation and recompiles.
func (s *oltpSession) readBack(ctx context.Context, root int, k int64) {
	start := time.Now()
	sp := s.tr.begin("engine.DB.Prepare", s.op, root)
	get, err := s.env.db.Prepare(engine.LangSQL, s.model.sql.get)
	s.tr.end(sp)
	var got *relation.Relation
	if err == nil {
		sp = s.tr.begin("engine.Stmt.QueryAll", s.op, root)
		got, err = get.QueryAll(ctx, k)
		s.tr.end(sp)
	}
	el := time.Since(start)
	s.res.attempted++
	if err != nil {
		s.res.fail("read key %d: %v", k, err)
		return
	}
	want, live := s.model.val[k]
	if live && (got.Card() != 1 || !got.Contains(relation.Tuple{value.Int(k), value.Int(want)})) || !live && got.Card() != 0 {
		s.res.fail("read after write %s key %d: %d rows, want live=%v value %d", s.model.table, k, got.Card(), live, want)
		return
	}
	s.raw = append(s.raw, el)
	s.all = append(s.all, el)
}

type txStmt struct {
	src  string
	args []any
}

// txStep runs one multi-row transaction (two updates, an insert and a
// delete of distinct keys) and retries it from the start on conflict.
func (s *oltpSession) txStep(ctx context.Context, root int) {
	m := s.model
	u1, u2, d := m.pick(s.r), m.pick(s.r), m.pick(s.r)
	if u2 == u1 || d == u1 || d == u2 {
		return // keys must be distinct; the next step draws again
	}
	ins := m.next
	v1, v2, vi := s.r.Int64N(1<<40), s.r.Int64N(1<<40), s.r.Int64N(1<<40)
	stmts := []txStmt{
		{m.sql.upd, []any{u1, v1}},
		{m.sql.ins, []any{ins, vi}},
		{m.sql.del, []any{d}},
		{m.sql.upd, []any{u2, v2}},
	}
	start := time.Now()
	s.res.attempted++
	for {
		err := s.runTx(ctx, root, stmts)
		if err == nil {
			break
		}
		if !errors.Is(err, engine.ErrConflict) {
			s.res.fail("transaction: %v", err)
			return
		}
		s.retries++
	}
	el := time.Since(start)
	s.tx = append(s.tx, el)
	s.all = append(s.all, el)
	m.put(u1, v1)
	m.put(u2, v2)
	m.next++
	m.put(ins, vi)
	m.del(d)
	s.acked(root)
}

func (s *oltpSession) runTx(ctx context.Context, root int, stmts []txStmt) error {
	if err := s.sess.Begin(ctx); err != nil {
		return err
	}
	for _, st := range stmts {
		sp := s.tr.begin("engine.Session.Exec", s.op, root)
		_, err := s.sess.Exec(ctx, engine.LangSQL, st.src, st.args...)
		s.tr.end(sp)
		if err != nil {
			_ = s.sess.Rollback() // the statement's error is the one reported
			return err
		}
	}
	sp := s.tr.begin("engine.Session.Commit", s.op, root)
	_, err := s.sess.Commit()
	s.tr.end(sp)
	return err
}

// loop runs body on every session concurrently and merges the
// sessions' counters into res.
func (e *oltpEnv) loop(res *result, t0 time.Time, traced bool, body func(*oltpSession)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range e.sessions {
		s.res = newResult()
		s.tr = newTracer(traced, t0)
		s.all, s.commit, s.raw, s.tx = nil, nil, nil, nil
		wg.Add(1)
		go func(s *oltpSession) {
			defer wg.Done()
			body(s)
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, s := range e.sessions {
		res.absorb(s.res)
	}
	return elapsed
}

// run is the workload's closed loop for the given seconds.
func (e *oltpEnv) run(res *result, seconds float64, t0 time.Time, traced bool) time.Duration {
	ctx := context.Background()
	end := deadline(seconds)
	return e.loop(res, t0, traced, func(s *oltpSession) {
		for time.Now().Before(end) {
			s.step(ctx)
		}
	})
}

func (e *oltpEnv) samples() (all, commit, raw, tx samples) {
	for _, s := range e.sessions {
		all = append(all, s.all...)
		commit = append(commit, s.commit...)
		raw = append(raw, s.raw...)
		tx = append(tx, s.tx...)
	}
	return
}

func (e *oltpEnv) tracers() []*tracer {
	var out []*tracer
	for _, s := range e.sessions {
		out = append(out, s.tr)
	}
	return out
}

func (e *oltpEnv) retries() (n int64) {
	for _, s := range e.sessions {
		n += s.retries
	}
	return n
}

// contention has both sessions rewrite rows of the first session's
// table with their current values, concurrently: no row changes, but
// the engine detects conflicts per relation, so the writers conflict.
// It runs in the traced run only, to keep that cost visible without
// making the gated figures depend on it.
func (e *oltpEnv) contention(res *result, t0 time.Time) error {
	ctx := context.Background()
	m := e.sessions[0].model
	upd, err := e.db.Prepare(engine.LangSQL, m.sql.upd)
	if err != nil {
		return err
	}
	before := e.db.Stats()
	retries := e.retries()
	e.loop(res, t0, true, func(s *oltpSession) {
		for i := 0; i < oltpContention; i++ {
			k := m.keys[s.r.IntN(len(m.keys))]
			s.res.attempted++
			if err := s.exec(ctx, upd, -1, k, m.val[k]); err != nil {
				s.res.fail("contention update: %v", err)
			}
		}
	})
	after := e.db.Stats()
	commits := float64(after.Store.Commits - before.Store.Commits)
	conflicts := float64(after.ConflictRetries - before.ConflictRetries)
	res.metrics["engine.contention_commits"] = commits
	res.metrics["engine.conflict_retries_per_commit"] = ratio(conflicts, commits)
	res.metrics["engine.client_retries"] = float64(e.retries() - retries)
	res.reportf("contention probe: %.0f commits to one shared table, %.0f engine conflict retries, %d retried by the benchmark",
		commits, conflicts, e.retries()-retries)
	return nil
}

func runDurableOLTP(cfg config) (*result, error) {
	res := newResult()
	env, err := buildMedian(cfg, res, func(rep int) (*oltpEnv, error) { return buildOLTP(cfg, rep) }, (*oltpEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if cfg.corrupt {
		// A wrong model: one acknowledged row that was never written.
		m := env.sessions[0].model
		m.put(m.next, 1)
		m.next++
	}

	var t0 time.Time
	var before, after engine.DBStats
	var elapsed time.Duration
	env.run(res, warmup(cfg), t0, false)
	if !cfg.trace {
		elapsed = env.run(res, cfg.seconds, t0, false)
	} else {
		untracedEl := env.run(res, cfg.seconds/2, t0, false)
		untraced, _, _, _ := env.samples()
		t0 = time.Now()
		before = env.db.Stats()
		elapsed = env.run(res, cfg.seconds/2, t0, true)
		after = env.db.Stats()
		traced, _, _, _ := env.samples()
		traceOverhead(res, len(traced), elapsed, len(untraced), untracedEl)
	}
	all, commit, raw, tx := env.samples()
	loopTracers := env.tracers()
	spans := merged(loopTracers...)
	if !cfg.trace {
		recordLatency(res, all, elapsed)
	}
	classLatency(res, "commit", commit)
	classLatency(res, "read_after_write", raw)
	classLatency(res, "tx", tx)
	res.reportf("checkpoints=%d (every %d commits) checkpoint_p50_ms=%.4g; conflicts retried by the benchmark=%d",
		len(env.ckptTimes), oltpCheckpointEvery, median(env.ckptTimes), env.retries())

	// End-of-run durability check: every table matches its model now and
	// after close + reopen (WAL replay since the last checkpoint).
	live := 0
	for _, s := range env.sessions {
		live += len(s.model.keys)
		res.attempted++
		if err := s.model.verify(env.db); err != nil {
			res.fail("after run: %v", err)
		}
	}
	if !cfg.trace {
		// Recompile every cached statement against the head, so the
		// statement cache pins the same snapshots in every run.
		for _, s := range env.sessions {
			for _, src := range []string{s.model.sql.ins, s.model.sql.upd, s.model.sql.del} {
				if _, err := env.db.Prepare(engine.LangSQL, src); err != nil {
					return nil, err
				}
			}
			s.readBack(context.Background(), -1, s.model.pick(s.r))
		}
		res.metrics["heap_mb"] = heapMB()
		runtime.KeepAlive(env)
		res.reportf("heap_mb=%.4g MB", res.metrics["heap_mb"])
	}
	gen := env.db.Generation()
	if err := env.db.Close(); err != nil {
		return nil, err
	}
	env.db = nil
	size, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	db, err := engine.OpenDurable(env.dir, durableOpts)
	if err != nil {
		return nil, err
	}
	recovery := time.Since(start)
	env.db = db
	rs, _ := db.RecoveryStats()
	for _, s := range env.sessions {
		res.attempted++
		if err := s.model.verify(db); err != nil || rs.Gen != gen {
			res.fail("after reopen (generation %d, want %d): %v", rs.Gen, gen, err)
		}
	}
	res.reportf("recovery_s=%.4g s (%d WAL records) disk_bytes_per_row=%.4g (%d bytes, %d rows)",
		recovery.Seconds(), rs.Records, float64(size)/float64(live), size, live)
	if !cfg.trace {
		return res, nil
	}

	totals := spanTotals(spans)
	res.metrics["engine.commits"] = float64(after.Store.Commits - before.Store.Commits)
	c, tc, q := totals["engine.Stmt.Exec"], totals["engine.Session.Commit"], totals["engine.Stmt.QueryAll"]
	res.metrics["engine.commit_us"] = ratio(us(c.dur+tc.dur), float64(c.n+tc.n))
	res.metrics["engine.queries"] = float64(q.n)
	res.metrics["engine.query_us"] = ratio(us(q.dur), float64(q.n))
	// Prepares here are the reads' cache revalidations after commits.
	pr := totals["engine.DB.Prepare"]
	prepares := float64(after.Prepares - before.Prepares)
	res.metrics["engine.prepares"] = prepares
	res.metrics["engine.prepare_us"] = ratio(us(pr.dur), float64(pr.n))
	res.metrics["engine.cache_hit_ratio"] = ratio(float64(after.CacheHits-before.CacheHits), prepares)
	if s0, s1 := before.Storage, after.Storage; s0 != nil && s1 != nil {
		recs := float64(s1.WALRecords - s0.WALRecords)
		res.metrics["storage.wal_records"] = recs
		res.metrics["storage.wal_bytes_per_commit"] = ratio(float64(s1.WALBytes-s0.WALBytes), recs)
		res.metrics["storage.checkpoints"] = float64(s1.Checkpoints - s0.Checkpoints)
	}
	ck := totals["engine.DB.Checkpoint"]
	res.metrics["storage.checkpoint_ms"] = ratio(ms(ck.dur), float64(ck.n))
	recoveryLayers(res, db, rs)
	m := env.sessions[0].model
	var keys []value.Value
	for i := 0; i < 20000; i++ {
		keys = append(keys, value.Int(m.pick(env.sessions[0].r)))
	}
	relationProbes(res, db.Relation(m.table), 0, keys, value.Int(-1))
	// The contention probe runs last: it commits to the reopened store
	// after every other figure is taken.
	if err := env.contention(res, t0); err != nil {
		return nil, err
	}
	res.spans = merged(append(loopTracers, env.tracers()...)...)
	reportSelfTimes(res, res.spans)
	reportTargets(res)
	zeroLayers(res)
	return res, nil
}

// recoveryLayers reports the storage figures of one recovery.
func recoveryLayers(res *result, db *engine.DB, rs storage.RecoveryStats) {
	res.metrics["storage.replay_records"] = float64(rs.Records)
	res.metrics["storage.replay_records_per_s"] = ratio(float64(rs.Records), rs.Duration.Seconds())
	if st := db.Stats().Storage; st != nil {
		lookups := float64(st.BlockCacheHits + st.BlockCacheMisses)
		res.metrics["storage.block_cache_lookups"] = lookups
		res.metrics["storage.block_cache_hit_ratio"] = ratio(float64(st.BlockCacheHits), lookups)
	}
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

package main

import (
	"context"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/value"
)

// relationProbes times the relation layer directly on a workload's main
// table: Relation.Clone (the copy every first write in a commit makes),
// a steady-state hash Probe on keyCol, and the first Probe after a
// write to a fresh clone (which rebuilds the index the write dropped).
// Every key in keys is in rel; fresh is not.
func relationProbes(res *result, rel *relation.Relation, keyCol int, keys []value.Value, fresh value.Value) {
	const reps = 5
	var clones, after []float64
	var tmpl relation.Tuple
	rel.EachWhile(func(t relation.Tuple, _ int) bool { tmpl = t.Clone(); return false })
	cols := []int{keyCol}
	matches := 0
	count := func(relation.Tuple, int) bool { matches++; return true }
	for i := 0; i < reps; i++ {
		start := time.Now()
		c := rel.Clone()
		clones = append(clones, ms(time.Since(start)))
		t := tmpl.Clone()
		t[keyCol] = fresh
		c.Insert(t)
		matches = 0
		start = time.Now()
		c.Probe(cols, []value.Value{fresh}, count)
		after = append(after, us(time.Since(start)))
		res.attempted++
		if matches != 1 {
			res.fail("probe after write: %d matches, want 1", matches)
		}
	}
	rel.Probe(cols, keys[:1], count)
	matches = 0
	start := time.Now()
	for _, k := range keys {
		rel.Probe(cols, []value.Value{k}, count)
	}
	res.metrics["relation.probe_steady_us"] = us(time.Since(start)) / float64(len(keys))
	res.attempted++
	if matches < len(keys) {
		res.fail("steady probes: %d matches for %d present keys", matches, len(keys))
	}
	res.metrics["relation.rows"] = float64(rel.Card())
	res.metrics["relation.clone_ms"] = median(clones)
	res.metrics["relation.probe_after_write_us"] = median(after)
}

// engineQueryProbe times in-process Stmt.QueryAll over args and sets
// engine.query_us / engine.queries. check validates each result.
func engineQueryProbe(res *result, tr *tracer, st *engine.Stmt, args [][]any, check func(i int, r *relation.Relation) bool) {
	ctx := context.Background()
	var total time.Duration
	for i, a := range args {
		sp := tr.begin("engine.Stmt.QueryAll", uint64(i), -1)
		start := time.Now()
		r, err := st.QueryAll(ctx, a...)
		total += time.Since(start)
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.fail("in-process query: %v", err)
			continue
		}
		if !check(i, r) {
			res.fail("in-process query %d: wrong result", i)
		}
	}
	res.metrics["engine.queries"] = float64(len(args))
	res.metrics["engine.query_us"] = us(total) / float64(max(len(args), 1))
}

// prepText is one statement text in its language.
type prepText struct {
	lang engine.Lang
	src  string
}

// enginePrepareProbe times DB.Prepare over texts and reads the statement
// cache counters the calls moved.
func enginePrepareProbe(res *result, tr *tracer, db *engine.DB, texts []prepText) {
	before := db.Stats()
	var total time.Duration
	for i, t := range texts {
		sp := tr.begin("engine.DB.Prepare", uint64(i), -1)
		start := time.Now()
		_, err := db.Prepare(t.lang, t.src)
		total += time.Since(start)
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.fail("prepare: %v", err)
		}
	}
	after := db.Stats()
	prepares := float64(after.Prepares - before.Prepares)
	res.metrics["engine.prepares"] = prepares
	res.metrics["engine.prepare_us"] = us(total) / float64(max(len(texts), 1))
	res.metrics["engine.cache_hit_ratio"] = ratio(float64(after.CacheHits-before.CacheHits), prepares)
}

// planFallback reports whether a statement runs without a compiled plan:
// its Explain fails or names the enumeration fallback.
func planFallback(st *engine.Stmt) bool {
	text, err := st.Explain()
	return err != nil || strings.Contains(text, "enumeration")
}

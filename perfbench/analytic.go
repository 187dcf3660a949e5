package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/value"
)

// Analytic data sizes: chosen so each query takes 0.2-60 ms on a 2-core
// box and a 20 s run collects about 2000 samples, enough for a p99.
const (
	dagNodes   = 110
	dagDegree  = 2
	dagWindow  = 10
	empRows    = 2000
	depts      = 120
	regions    = 8
	salaries   = 10000
	rangeLo    = 2500
	rangeHi    = 7000
	bonusShare = 0.45
)

// intentTexts holds one intent in SQL, ARC and Datalog (langNames order).
var intentTexts = [][3]string{
	{ // tc: transitive closure of E
		"with recursive tc(s, t) as (select E.S, E.T from E union select tc.s, E.T from tc, E where tc.t = E.S) select tc.s, tc.t from tc",
		"{A(s, t) | ∃p ∈ E [A.s = p.S ∧ A.t = p.T] ∨ ∃p ∈ E, a2 ∈ A [A.s = p.S ∧ p.T = a2.s ∧ A.t = a2.t]}",
		"A(x,y) :- E(x,y). A(x,y) :- E(x,z), A(z,y).",
	},
	{ // join_group: employees per region, count and salary sum
		"select Dept.Rg, count(*), sum(Emp.Sal) from Emp, Dept where Emp.D = Dept.D group by Dept.Rg",
		"{Q(rg, ct, sm) | ∃e ∈ Emp, d ∈ Dept, γ d.Rg [e.D = d.D ∧ Q.rg = d.Rg ∧ Q.ct = count(e.Id) ∧ Q.sm = sum(e.Sal)]}",
		"ER(i,r,x) :- Emp(i,d,x), Dept(d,r). Q(r,c,s) :- Dept(_,r), c = count : {ER(i,r,x)}, s = sum x : {ER(i2,r,x)}.",
	},
	{ // anti: employees without a bonus
		"select Emp.Id from Emp where not exists (select Bonus.Id from Bonus where Bonus.Id = Emp.Id)",
		"{Q(id) | ∃e ∈ Emp [Q.id = e.Id ∧ ¬∃b ∈ Bonus [b.Id = e.Id]]}",
		"HasB(i) :- Bonus(i,_). Q(i) :- Emp(i,_,_), !HasB(i).",
	},
	{ // range_agg: count and sum over a salary range
		fmt.Sprintf("select count(*), sum(Emp.Sal) from Emp where Emp.Sal >= %d and Emp.Sal < %d", rangeLo, rangeHi),
		fmt.Sprintf("{Q(ct, sm) | ∃e ∈ Emp, γ ∅ [e.Sal >= %d ∧ e.Sal < %d ∧ Q.ct = count(e.Id) ∧ Q.sm = sum(e.Sal)]}", rangeLo, rangeHi),
		fmt.Sprintf("Q(c,s) :- c = count : {Emp(i,d,x), x >= %d, x < %d}, s = sum x : {Emp(i2,d2,x), x >= %d, x < %d}.", rangeLo, rangeHi, rangeLo, rangeHi),
	},
}

// intentWeights is each intent's share of a cycle per language. The
// range aggregate, the interactive query, runs twice; the odd cycle
// length (15) keeps the median off a boundary between query classes.
var intentWeights = []int{1, 1, 1, 2}

var langs = []engine.Lang{engine.LangSQL, engine.LangARC, engine.LangDatalog}

// analyticData is the seeded analytic database plus its Go oracle.
type analyticData struct {
	rels   []*relation.Relation
	expect []*relation.Relation // per intent
}

func newAnalyticData(seed uint64) analyticData {
	r := rand.New(rand.NewPCG(seed, 0x616e616c))
	e := relation.New("E", "S", "T")
	adj := make([][]int, dagNodes)
	for i := 0; i < dagNodes-1; i++ {
		// dagDegree distinct successors within the window (fewer only
		// where the window runs past the last node), so every seed
		// gives the same edge count.
		w := min(dagWindow, dagNodes-1-i)
		for _, o := range r.Perm(w)[:min(dagDegree, w)] {
			j := i + 1 + o
			e.Insert(relation.Tuple{value.Int(int64(i)), value.Int(int64(j))})
			adj[i] = append(adj[i], j)
		}
	}
	dept := relation.New("Dept", "D", "Rg")
	rg := make([]int64, depts)
	for d := 0; d < depts; d++ {
		rg[d] = int64(d % regions)
		dept.Insert(relation.Tuple{value.Int(int64(d)), value.Int(rg[d])})
	}
	emp := relation.New("Emp", "Id", "D", "Sal")
	bonus := relation.New("Bonus", "Id", "Amt")
	type agg struct{ ct, sm int64 }
	byRegion := map[int64]*agg{}
	var rangeCt, rangeSm int64
	anti := relation.New("Q", "id")
	// Exactly bonusShare of the employees get a bonus.
	hasBonus := make([]bool, empRows)
	for _, id := range r.Perm(empRows)[:int(bonusShare*empRows)] {
		hasBonus[id] = true
	}
	for id := int64(0); id < empRows; id++ {
		d := id % depts // every department, hence every region, has employees
		if id >= depts {
			d = r.Int64N(depts)
		}
		sal := r.Int64N(salaries)
		emp.Insert(relation.Tuple{value.Int(id), value.Int(d), value.Int(sal)})
		a := byRegion[rg[d]]
		if a == nil {
			a = &agg{}
			byRegion[rg[d]] = a
		}
		a.ct++
		a.sm += sal
		if sal >= rangeLo && sal < rangeHi {
			rangeCt++
			rangeSm += sal
		}
		if hasBonus[id] {
			bonus.Insert(relation.Tuple{value.Int(id), value.Int(r.Int64N(1000))})
		} else {
			anti.Insert(relation.Tuple{value.Int(id)})
		}
	}

	// Oracle: reachability by DFS over the DAG, in reverse topological
	// order, as bitsets.
	reach := make([][]uint64, dagNodes)
	words := (dagNodes + 63) / 64
	for i := dagNodes - 1; i >= 0; i-- {
		reach[i] = make([]uint64, words)
		for _, j := range adj[i] {
			reach[i][j/64] |= 1 << (j % 64)
			for w := range reach[i] {
				reach[i][w] |= reach[j][w]
			}
		}
	}
	tc := relation.New("A", "s", "t")
	for i := range reach {
		for w, word := range reach[i] {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				tc.Insert(relation.Tuple{value.Int(int64(i)), value.Int(int64(w*64 + b))})
			}
		}
	}
	join := relation.New("Q", "rg", "ct", "sm")
	for k, a := range byRegion {
		join.Insert(relation.Tuple{value.Int(k), value.Int(a.ct), value.Int(a.sm)})
	}
	rangeAgg := relation.New("Q", "ct", "sm").Add(rangeCt, rangeSm)
	return analyticData{
		rels:   []*relation.Relation{e, dept, emp, bonus},
		expect: []*relation.Relation{tc, join, anti, rangeAgg},
	}
}

type analyticQuery struct {
	lang, intent int
	stmt         *engine.Stmt
}

type analyticEnv struct {
	db      *engine.DB
	queries []analyticQuery // one per (lang, intent)
}

func buildAnalytic(data analyticData) (*analyticEnv, error) {
	db := engine.Open(data.rels...)
	env := &analyticEnv{db: db}
	for li, lang := range langs {
		for ii, texts := range intentTexts {
			st, err := db.Prepare(lang, texts[li])
			if err != nil {
				return nil, fmt.Errorf("prepare %s %s: %w", langNames[li], intentNames[ii], err)
			}
			// One warm execution builds the lazy indexes the steady state
			// runs on.
			if _, err := st.QueryAll(context.Background()); err != nil {
				return nil, fmt.Errorf("%s %s: %w", langNames[li], intentNames[ii], err)
			}
			env.queries = append(env.queries, analyticQuery{lang: li, intent: ii, stmt: st})
		}
	}
	return env, nil
}

// cycle returns one shuffled cycle of query indexes, each intent
// repeated by its weight.
func (e *analyticEnv) cycle(r *rand.Rand) []int {
	var out []int
	for i, q := range e.queries {
		for w := 0; w < intentWeights[q.intent]; w++ {
			out = append(out, i)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// analyticStats accumulates per-query traced counters.
type analyticStats struct {
	n                   []int
	dur                 []time.Duration
	ops, rounds, deltas []int
}

func runAnalytic(cfg config) (*result, error) {
	res := newResult()
	data := newAnalyticData(cfg.seed)
	expect := data.expect
	if cfg.corrupt {
		// A wrong oracle: one extra closure pair no engine derives.
		expect = append([]*relation.Relation(nil), expect...)
		expect[0] = expect[0].Clone()
		expect[0].Insert(relation.Tuple{value.Int(dagNodes), value.Int(dagNodes)})
	}
	env, err := buildMedian(cfg, res, func(int) (*analyticEnv, error) { return buildAnalytic(data) }, func(*analyticEnv) {})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(cfg.seed, 0x6379636c))
	ctx := context.Background()

	// loop runs shuffled cycles until the deadline. With st != nil the
	// queries run through QueryTraced and their traces are accumulated.
	loop := func(seconds float64, tr *tracer, st *analyticStats) (samples, []samples, time.Duration) {
		var all samples
		per := make([]samples, len(env.queries))
		call := "engine.Stmt.QueryAll"
		if st != nil {
			call = "engine.Stmt.QueryTraced"
		}
		start := time.Now()
		end := deadline(seconds)
		var op uint64
		for time.Now().Before(end) {
			for _, qi := range env.cycle(r) {
				q := env.queries[qi]
				root := tr.begin("analytic.op", op, -1)
				sp := tr.begin(call, op, root)
				t0 := time.Now()
				var got *relation.Relation
				var err error
				if st == nil {
					got, err = q.stmt.QueryAll(ctx)
				} else {
					got, err = tracedQuery(ctx, q.stmt, st, qi)
				}
				el := time.Since(t0)
				tr.end(sp)
				tr.end(root)
				op++
				res.attempted++
				if err != nil {
					res.fail("%s %s: %v", langNames[q.lang], intentNames[q.intent], err)
					continue
				}
				if !got.EqualSet(expect[q.intent]) {
					res.fail("%s %s: %d rows, want %d (the oracle's)", langNames[q.lang], intentNames[q.intent], got.Distinct(), expect[q.intent].Distinct())
					continue
				}
				if st != nil {
					st.n[qi]++
					st.dur[qi] += el
				}
				all = append(all, el)
				per[qi] = append(per[qi], el)
			}
		}
		return all, per, time.Since(start)
	}

	loop(warmup(cfg), nil, nil)
	if !cfg.trace {
		all, per, elapsed := loop(cfg.seconds, nil, nil)
		recordLatency(res, all, elapsed)
		for i, q := range env.queries {
			classLatency(res, langNames[q.lang]+"_"+intentNames[q.intent], per[i])
		}
		for i, e := range expect {
			res.reportf("expected %s rows=%d", intentNames[i], e.Distinct())
		}
		res.metrics["heap_mb"] = heapMB()
		runtime.KeepAlive(env)
		res.reportf("heap_mb=%.4g MB", res.metrics["heap_mb"])
		return res, nil
	}

	untraced, _, untracedEl := loop(cfg.seconds/2, nil, nil)
	t0 := time.Now()
	tr := newTracer(true, t0)
	n := len(env.queries)
	st := &analyticStats{n: make([]int, n), dur: make([]time.Duration, n), ops: make([]int, n), rounds: make([]int, n), deltas: make([]int, n)}
	traced, _, tracedEl := loop(cfg.seconds/2, tr, st)
	traceOverhead(res, len(traced), tracedEl, len(untraced), untracedEl)
	var total time.Duration
	for _, d := range st.dur {
		total += d
	}
	res.metrics["engine.queries"] = float64(len(traced))
	res.metrics["engine.query_us"] = ratio(us(total), float64(len(traced)))
	fallback := make([]float64, len(langNames))
	for i, q := range env.queries {
		name := langNames[q.lang] + "_" + intentNames[q.intent]
		k := float64(max(st.n[i], 1))
		res.metrics["exec."+name+"_ms"] = ms(st.dur[i]) / k
		res.metrics["exec."+name+"_ops"] = float64(st.ops[i]) / k
		if q.intent == 0 {
			res.metrics["fixpoint."+langNames[q.lang]+"_rounds"] = float64(st.rounds[i]) / k
			res.metrics["fixpoint."+langNames[q.lang]+"_delta_rows"] = float64(st.deltas[i]) / k
		}
		if planFallback(q.stmt) {
			fallback[q.lang]++
		}
	}
	res.metrics["plan.statements_per_lang"] = float64(len(intentTexts))
	for l, name := range langNames {
		res.metrics["plan.fallback_ratio_"+name] = fallback[l] / float64(len(intentTexts))
	}
	var texts []prepText
	for i := 0; i < 20; i++ {
		for _, q := range env.queries {
			texts = append(texts, prepText{langs[q.lang], intentTexts[q.intent][q.lang]})
		}
	}
	probe := newTracer(true, t0)
	enginePrepareProbe(res, probe, env.db, texts)
	var keys []value.Value
	for i := 0; i < 20000; i++ {
		keys = append(keys, value.Int(r.Int64N(empRows)))
	}
	relationProbes(res, env.db.Relation("Emp"), 0, keys, value.Int(empRows))
	res.spans = merged(tr, probe)
	reportSelfTimes(res, res.spans)
	reportTargets(res)
	zeroLayers(res)
	return res, nil
}

// tracedQuery runs one query through QueryTraced, drains it into a
// relation and accumulates the trace's operator and fixpoint totals.
func tracedQuery(ctx context.Context, s *engine.Stmt, st *analyticStats, qi int) (*relation.Relation, error) {
	rows, tr, err := s.QueryTraced(ctx)
	if err != nil {
		return nil, err
	}
	out := relation.New("Q", rows.Columns()...)
	for rows.Next() {
		out.Insert(relation.Tuple(rows.Values()).Clone())
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	st.ops[qi] += tr.NumOps()
	st.rounds[qi] += tr.TotalRounds()
	tr.EachFixpoint(func(f *trace.Fixpoint) { st.deltas[qi] += f.TotalDelta() })
	return out, nil
}

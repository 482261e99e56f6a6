package opt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"matview/internal/catalog"
	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/filtertree"
	"matview/internal/spjg"
)

// Options selects the optimizer configurations the paper's experiments
// compare (§5).
type Options struct {
	// UseViews enables the view-matching transformation rule.
	UseViews bool
	// UseFilterTree routes candidate lookup through the filter tree; when
	// false every registered view is checked on each invocation (the "No
	// Filter" configuration of Figure 2).
	UseFilterTree bool
	// NoSubstitutes runs the view-matching analysis but discards the
	// substitutes it produces (the "No Alt" configuration of Figure 2),
	// isolating matching cost from substitute-processing cost.
	NoSubstitutes bool
	// EnablePreAggregation adds the eager group-by alternatives that let
	// aggregation views match below a join (Example 4).
	EnablePreAggregation bool
	// Match configures the view-matching algorithm itself.
	Match core.MatchOptions
}

// DefaultOptions is the full configuration: views, filter tree, substitutes
// and pre-aggregation all on.
func DefaultOptions() Options {
	return Options{
		UseViews:             true,
		UseFilterTree:        true,
		EnablePreAggregation: true,
		Match:                core.DefaultOptions(),
	}
}

// QueryStats instruments one (or a batch of) Optimize calls the way the
// paper's experiments require (§5): rule invocation counts, candidate-set
// sizes after filtering, substitutes produced, and time spent inside the
// view-matching rule.
//
// A QueryStats value is not itself synchronized. The concurrency model is
// sharding: each Optimize call accumulates into its own private value (the
// hot path touches no shared counters), and batch APIs like OptimizeAll give
// every worker its own shard, merging them with Add once the workers have
// finished. All fields are sums, so merge order does not affect the totals.
type QueryStats struct {
	Invocations         int64
	CandidatesChecked   int64
	SubstitutesProduced int64
	ViewMatchTime       time.Duration
}

// Add accumulates other into s. It must not be called concurrently with
// other writes to s; merge per-worker shards after joining the workers.
func (s *QueryStats) Add(other QueryStats) {
	s.Invocations += other.Invocations
	s.CandidatesChecked += other.CandidatesChecked
	s.SubstitutesProduced += other.SubstitutesProduced
	s.ViewMatchTime += other.ViewMatchTime
}

// Result is the outcome of optimizing one query.
type Result struct {
	Plan     exec.Node
	Cost     float64
	Rows     float64
	UsesView bool
	Stats    QueryStats
}

// Optimizer owns the registered views, the filter tree, and the matcher, and
// optimizes SPJG queries into executable plans.
//
// An Optimizer is safe for concurrent use: RegisterView, DropView,
// SetViewRowCount, and RegisterViewIndex take an exclusive lock, while
// Optimize (and OptimizeAll's workers) take a shared lock for the duration
// of planning, so any number of goroutines may optimize concurrently. Views
// are immutable once published; per-query state lives on the stack or in
// pooled scratch, never in shared mutable fields.
type Optimizer struct {
	cat     *catalog.Catalog
	matcher *core.Matcher
	opts    Options

	// mu guards the view catalog below. Optimize holds it in read mode for
	// the whole planning pass; registration paths hold it in write mode.
	mu          sync.RWMutex
	views       []*core.View
	byName      map[string]*core.View
	tree        *filtertree.Tree
	viewRows    map[int]float64 // estimated materialized cardinality by view ID
	viewIndexes map[int][][]int // declared secondary indexes by view ID
	unhealthy   map[string]bool // views excluded from matching (stale/quarantined)
	nextID      int

	// epoch counts catalog mutations (view registration and drop, index
	// declaration, row-count overrides). External plan caches stamp entries
	// with the epoch observed before planning; any DDL bumps it, so a plan
	// computed against an older catalog shape is never served again.
	epoch atomic.Uint64
}

// NewOptimizer returns an optimizer over the catalog.
func NewOptimizer(cat *catalog.Catalog, opts Options) *Optimizer {
	return &Optimizer{
		cat:       cat,
		matcher:   core.NewMatcher(cat, opts.Match),
		opts:      opts,
		byName:    map[string]*core.View{},
		tree:      filtertree.New(),
		viewRows:  map[int]float64{},
		unhealthy: map[string]bool{},
	}
}

// Matcher exposes the underlying view matcher.
func (o *Optimizer) Matcher() *core.Matcher { return o.matcher }

// CatalogEpoch returns the current catalog version. It increases on every
// catalog mutation (RegisterView, DropView, RegisterViewIndex,
// SetViewRowCount). Plan caches snapshot it before planning and must treat
// entries stamped with an older epoch as stale: reading the epoch first and
// planning second guarantees a plan can only be cached under an epoch at
// least as old as the catalog it was planned against.
func (o *Optimizer) CatalogEpoch() uint64 { return o.epoch.Load() }

// Options returns the optimizer's configuration.
func (o *Optimizer) Options() Options { return o.opts }

// NumViews returns the number of registered views.
func (o *Optimizer) NumViews() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.views)
}

// Views returns a snapshot of the registered views.
func (o *Optimizer) Views() []*core.View {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return append([]*core.View(nil), o.views...)
}

// ViewByName returns a registered view, or nil.
func (o *Optimizer) ViewByName(name string) *core.View {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.byName[name]
}

// RegisterView validates, analyzes, and indexes a materialized view
// definition. The view's materialized cardinality is estimated from catalog
// statistics; SetViewRowCount overrides it once actual data exists.
func (o *Optimizer) RegisterView(name string, def *spjg.Query) (*core.View, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.byName[name]; dup {
		return nil, fmt.Errorf("opt: duplicate view %q", name)
	}
	v, err := o.matcher.NewView(o.nextID, name, def)
	if err != nil {
		return nil, err
	}
	o.nextID++
	o.views = append(o.views, v)
	o.byName[name] = v
	o.tree.Insert(v)
	o.viewRows[v.ID] = EstimateRows(def)
	o.epoch.Add(1)
	return v, nil
}

// DropView removes a view by name; it reports whether it existed.
func (o *Optimizer) DropView(name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.byName[name]
	if !ok {
		return false
	}
	delete(o.byName, name)
	o.tree.Delete(v)
	delete(o.viewRows, v.ID)
	delete(o.viewIndexes, v.ID)
	delete(o.unhealthy, name)
	for i, w := range o.views {
		if w.ID == v.ID {
			o.views = append(o.views[:i], o.views[i+1:]...)
			break
		}
	}
	o.epoch.Add(1)
	return true
}

// SetViewRowCount overrides the estimated cardinality of a view (e.g. with
// the actual materialized row count).
func (o *Optimizer) SetViewRowCount(name string, rows int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if v, ok := o.byName[name]; ok {
		o.viewRows[v.ID] = float64(rows)
		o.epoch.Add(1)
	}
}

// SetViewHealth includes or excludes a view from matching. The maintenance
// layer calls it on every lifecycle transition: a view whose maintenance
// failed is excluded until repaired, so the optimizer degrades to base-table
// plans instead of reading stale rows. A real change bumps the catalog
// epoch, which invalidates every cached plan that might embed the view (and,
// on recovery, every base-table plan a Fresh view could now beat). Health
// for an unregistered name is remembered harmlessly and cleared by DropView.
func (o *Optimizer) SetViewHealth(name string, healthy bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if healthy == !o.unhealthy[name] {
		return
	}
	if healthy {
		delete(o.unhealthy, name)
	} else {
		o.unhealthy[name] = true
	}
	o.epoch.Add(1)
}

// ruleOn reports whether the view-matching rule has anything to do; the caller
// holds the catalog lock.
func (o *Optimizer) ruleOn() bool { return o.opts.UseViews && len(o.views) > 0 }

// matchViews is the view-matching transformation rule on one expression of
// the query, given as its context: find candidate views (through the filter
// tree or by scanning all descriptions), run the matching tests on each, and
// return the substitutes — in a buffer that the next invocation reuses.
// Instrumentation mirrors §5. Non-Fresh views (SetViewHealth) are filtered
// out before the matching tests so a degraded view can never appear in a plan.
func (c *optCtx) matchViews(qc *core.QueryContext) []*core.Substitute {
	o := c.o
	if !o.ruleOn() {
		return nil
	}
	start := time.Now()
	c.stats.Invocations++
	cands := o.views
	if o.opts.UseFilterTree {
		cands = o.tree.Candidates(qc.Keys())
	}
	c.stats.CandidatesChecked += int64(len(cands))
	c.subs = c.subs[:0]
	for _, v := range cands {
		if len(o.unhealthy) > 0 && o.unhealthy[v.Name] {
			continue
		}
		if sub := qc.Match(v); sub != nil {
			c.stats.SubstitutesProduced++
			if !o.opts.NoSubstitutes {
				c.subs = append(c.subs, sub)
			}
		}
	}
	c.stats.ViewMatchTime += time.Since(start)
	return c.subs
}

// OptimizeAll optimizes a batch of queries over a pool of workers and
// returns the per-query results (aligned with queries) plus the aggregate
// stats. It is OptimizeAllCtx without cancellation.
func (o *Optimizer) OptimizeAll(queries []*spjg.Query, workers int) ([]*Result, QueryStats, error) {
	return o.OptimizeAllCtx(context.Background(), queries, workers)
}

// OptimizeAllCtx optimizes a batch of queries over a pool of workers and
// returns the per-query results (aligned with queries) plus the aggregate
// stats. workers <= 0 selects GOMAXPROCS. Each worker accumulates stats in
// its own shard; shards are merged with QueryStats.Add after the workers
// join, so the aggregate counts are identical to a serial run over the same
// queries regardless of scheduling (ViewMatchTime sums CPU time across
// workers and therefore exceeds wall-clock time under parallelism).
//
// Cancelling ctx stops the batch: workers check the context between queries
// (and Optimize checks it during planning), so a cancelled batch returns
// ctx's error promptly instead of draining the remaining queries.
//
// Optimization is a read-only operation on the optimizer, so OptimizeAllCtx
// may run concurrently with itself; registrations are serialized against it
// by the optimizer's lock.
func (o *Optimizer) OptimizeAllCtx(ctx context.Context, queries []*spjg.Query, workers int) ([]*Result, QueryStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	results := make([]*Result, len(queries))
	if workers <= 1 {
		var agg QueryStats
		for i, q := range queries {
			res, err := o.OptimizeCtx(ctx, q)
			if err != nil {
				return nil, QueryStats{}, fmt.Errorf("opt: optimizing query %d: %w", i, err)
			}
			results[i] = res
			agg.Add(res.Stats)
		}
		return results, agg, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	shards := make([]QueryStats, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				res, err := o.OptimizeCtx(ctx, queries[i])
				if err != nil {
					errs[w] = fmt.Errorf("opt: optimizing query %d: %w", i, err)
					failed.Store(true)
					return
				}
				results[i] = res
				shards[w].Add(res.Stats)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, QueryStats{}, err
		}
	}
	var agg QueryStats
	for w := range shards {
		agg.Add(shards[w])
	}
	return results, agg, nil
}

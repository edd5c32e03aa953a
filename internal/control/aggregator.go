// Aggregator tier of the control plane: fan-in/fan-out shards between
// the controller and the stage fleet, plus decentralized token
// borrowing between sibling stages under one aggregator.
//
// A flat feedback loop costs one exchange per stage per round, so past
// a few thousand stages the round's wall clock is the fleet size. An
// Aggregator fronts a shard of stages: the controller exchanges one
// Agg.Round per shard per phase (the merged per-job delta travels up,
// per-job grants travel down), and the aggregator fans the work across
// its members locally. The controller's round cost becomes the
// aggregator count, whatever the shard size.
//
// Borrowing (WithBorrowing / WithAggBorrowing) keeps enforcement
// work-conserving between rounds: each aggregator's member stages share
// a tokenbucket.BorrowPool on the managed control queue, so a stage
// that runs dry borrows unused tokens from idle siblings — bounded by
// the pool's budget, settled when the next plan lands. Tokens move,
// they are never minted, so the sum of effective rates under an
// aggregator can never exceed what the controller granted its shard —
// even while the aggregator is down or partitioned, which is exactly
// when the fleet depends on it (the chaos AggregatorLoss scenario).
package control

import (
	"fmt"
	"sort"
	"sync"

	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
	"padll/internal/tokenbucket"
)

// LocalStage exposes the in-process stage behind a LocalConn so the
// aggregator tier can wire borrow pools to its token buckets. Wrappers
// that embed LocalConn (fault injectors) inherit it.
func (c *LocalConn) LocalStage() *stage.Stage { return c.Stg }

// localStager is the optional StageConn extension borrowing needs:
// direct access to an in-process stage's bucket wiring. Remote members
// don't satisfy it and simply never join a pool.
type localStager interface {
	LocalStage() *stage.Stage
}

// AggOption configures an Aggregator.
type AggOption func(*Aggregator)

// WithAggWorkers bounds how many member stages one aggregator round
// drives in parallel (default 8; 1 forces sequential member order).
func WithAggWorkers(n int) AggOption {
	return func(a *Aggregator) {
		if n > 0 {
			a.workers = n
		}
	}
}

// WithAggMatcher overrides the matcher template of the managed rule an
// aggregator reinstalls on members that lost it (default: the
// metadata-like classes, job-scoped — the controller's default).
func WithAggMatcher(m policy.Matcher) AggOption {
	return func(a *Aggregator) { a.matcher = m }
}

// WithAggBorrowing links every local member's managed control queue
// into one shared borrow pool; budget bounds each member's outstanding
// debt as a fraction of its burst capacity (non-positive selects
// tokenbucket.DefaultBorrowBudget).
func WithAggBorrowing(budget float64) AggOption {
	return func(a *Aggregator) { a.pool = tokenbucket.NewBorrowPool(budget) }
}

// WithAggErrorHandler installs a sink for member-communication errors
// (default: drop — a dead member is reported upward as FailedStages).
func WithAggErrorHandler(f func(stageID string, err error)) AggOption {
	return func(a *Aggregator) { a.onError = f }
}

// aggTopo is an immutable snapshot of an aggregator's membership and
// its derived indexes. AddMember publishes a fresh snapshot
// (copy-on-write), so a round in flight never sees a half-built
// topology and the hot path needs no per-round map building: a member's
// job is an index, not a hash lookup.
type aggTopo struct {
	members  []StageConn // StageID-sorted: the deterministic fan-out order
	rowOf    []int       // member index -> index into jobs
	jobs     []string    // distinct member job IDs, sorted
	jobCount []int       // member count per jobs[i]
}

func buildAggTopo(members []StageConn) *aggTopo {
	t := &aggTopo{members: members, rowOf: make([]int, len(members))}
	for _, m := range members {
		job := m.Info().JobID
		if idx := sort.SearchStrings(t.jobs, job); idx == len(t.jobs) || t.jobs[idx] != job {
			t.jobs = append(t.jobs, "")
			t.jobCount = append(t.jobCount, 0)
			copy(t.jobs[idx+1:], t.jobs[idx:])
			copy(t.jobCount[idx+1:], t.jobCount[idx:])
			t.jobs[idx] = job
			t.jobCount[idx] = 0
		}
	}
	for i, m := range members {
		idx := sort.SearchStrings(t.jobs, m.Info().JobID)
		t.rowOf[i] = idx
		t.jobCount[idx]++
	}
	return t
}

// Aggregator fronts one shard of stages. It implements rpcio.AggBackend
// so it can be served over the wire (rpcio.NewAggService), and is
// driven in-process through LocalAggConn. It is safe for concurrent
// use.
type Aggregator struct {
	id      string
	workers int
	matcher policy.Matcher
	pool    *tokenbucket.BorrowPool
	onError func(stageID string, err error)

	mu   sync.Mutex
	topo *aggTopo // immutable; replaced wholesale by AddMember/Close

	// roundMu serializes rounds and single-owns the positional scratch
	// below (slot i is member i of scratchTopo, fully overwritten each
	// round) plus the per-member probes the latest collect recorded and
	// the persistent fan-out worker pool.
	roundMu     sync.Mutex
	scratchTopo *aggTopo
	buf         []stage.Stats
	errs        []error
	probes      []stageProbe
	fresh       []bool    // buf[i] holds a live materialization a DeltaConn may keep current
	changed     []bool    // member i's collect reported a change (or failed) this round
	rates       []float64 // per-job target member rate this round
	hasRate     []bool
	rows        []rpcio.AggJobDelta
	rowsValid   bool      // rows still describe the member set's current stats
	work        chan int  // persistent worker pool feed; nil until first concurrent round
	fn          func(int) // current round's member task; workers read it after a work receive
	fanWG       sync.WaitGroup
}

// NewAggregator returns an empty aggregator; add members, then serve or
// register it.
func NewAggregator(id string, opts ...AggOption) *Aggregator {
	a := &Aggregator{
		id:      id,
		topo:    &aggTopo{},
		workers: 8,
		matcher: policy.Matcher{Classes: []posix.Class{
			posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr,
		}},
		onError: func(string, error) {},
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// ID returns the aggregator's identity (its mux attach name when
// served).
func (a *Aggregator) ID() string { return a.id }

// AddMember adds a stage to the shard. When borrowing is enabled and
// the connection exposes its in-process stage, the stage's managed
// control queue joins the shard's borrow pool.
func (a *Aggregator) AddMember(conn StageConn) {
	a.mu.Lock()
	members := make([]StageConn, 0, len(a.topo.members)+1)
	members = append(members, a.topo.members...)
	members = append(members, conn)
	sort.Slice(members, func(i, j int) bool {
		return members[i].Info().StageID < members[j].Info().StageID
	})
	a.topo = buildAggTopo(members)
	a.mu.Unlock()
	if a.pool != nil {
		if ls, ok := conn.(localStager); ok {
			ls.LocalStage().SetBorrowPool(ControlRuleID, a.pool)
		}
	}
}

// Members returns the current member count.
func (a *Aggregator) Members() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.topo.members)
}

// BorrowCounts reports the shard pool's lifetime token movement
// (all zero when borrowing is disabled).
func (a *Aggregator) BorrowCounts() (borrowed, repaid, forgiven float64) {
	if a.pool == nil {
		return 0, 0, 0
	}
	return a.pool.Counts()
}

// managedRule is the control rule reinstalled on a member that lost its
// managed queue (restart), mirroring Controller.managedRuleFor.
func (a *Aggregator) managedRule(jobID string, rate float64) policy.Rule {
	m := a.matcher
	m.JobID = jobID
	return policy.Rule{ID: ControlRuleID, Match: m, Rate: rate}
}

// Describe implements rpcio.AggBackend: identity plus current
// membership (distinct member job IDs, sorted).
func (a *Aggregator) Describe(reply *rpcio.AggInfo) {
	a.mu.Lock()
	topo := a.topo
	a.mu.Unlock()
	reply.AggID = a.id
	reply.Stages = len(topo.members)
	reply.Jobs = append(reply.Jobs, topo.jobs...)
}

// fanOut runs fn(i) for every member index on the aggregator's
// persistent worker pool (started lazily, workers goroutines). Unlike a
// per-round runBounded, rounds at fleet scale don't pay a goroutine
// spawn per worker per shard per phase. Caller must hold roundMu; the
// channel send/receive orders the a.fn write before any worker reads
// it.
func (a *Aggregator) fanOut(n int, fn func(int)) {
	if a.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if a.work == nil {
		a.work = make(chan int, a.workers)
		for w := 0; w < a.workers; w++ {
			go a.worker(a.work)
		}
	}
	a.fn = fn
	a.fanWG.Add(n)
	for i := 0; i < n; i++ {
		a.work <- i
	}
	a.fanWG.Wait()
	a.fn = nil
}

func (a *Aggregator) worker(work <-chan int) {
	for i := range work {
		a.fn(i)
		a.fanWG.Done()
	}
}

// Round implements rpcio.AggBackend: one control round over the shard.
// Grants fan down (each job's shard grant split equally among its
// member stages, the managed rule reinstalled where it vanished) and,
// when args.Collect is set, the members' statistics fan in, merged into
// one AggJobDelta row per job. Member failures never fail the round —
// they surface as FailedStages, and the loop runs on the partial
// snapshot.
//
// When a grant push lands on a borrowing shard, the pool settles first:
// debts repay from whatever each debtor still holds and the rest is
// forgiven, so the fresh allocation starts from a clean ledger.
func (a *Aggregator) Round(args *rpcio.AggRoundArgs, reply *rpcio.AggRoundReply) error {
	a.mu.Lock()
	topo := a.topo
	a.mu.Unlock()
	nm, nj := len(topo.members), len(topo.jobs)

	if a.pool != nil && len(args.Grants) > 0 {
		a.pool.Settle()
	}

	a.roundMu.Lock()
	defer a.roundMu.Unlock()
	if a.scratchTopo != topo {
		// Membership changed: resize the positional scratch and drop the
		// probes — member slots shifted, so recorded limits are at the
		// wrong indexes.
		a.scratchTopo = topo
		for len(a.buf) < nm {
			a.buf = append(a.buf, stage.Stats{})
		}
		for len(a.errs) < nm {
			a.errs = append(a.errs, nil)
		}
		a.probes = append(a.probes[:0], make([]stageProbe, nm)...)
		a.fresh = append(a.fresh[:0], make([]bool, nm)...)
		a.changed = append(a.changed[:0], make([]bool, nm)...)
		a.rates = append(a.rates[:0], make([]float64, nj)...)
		a.hasRate = append(a.hasRate[:0], make([]bool, nj)...)
		a.rows = append(a.rows[:0], make([]rpcio.AggJobDelta, nj)...)
		a.rowsValid = false
	}
	buf, errs, probes := a.buf[:nm], a.errs[:nm], a.probes[:nm]
	fresh, chg := a.fresh[:nm], a.changed[:nm]
	rates, hasRate := a.rates[:nj], a.hasRate[:nj]
	for j := range rates {
		rates[j], hasRate[j] = 0, false
	}
	for _, g := range args.Grants {
		if idx := sort.SearchStrings(topo.jobs, g.JobID); idx < nj && topo.jobs[idx] == g.JobID {
			rates[idx] = g.Rate / float64(topo.jobCount[idx])
			hasRate[idx] = true
		}
	}

	a.fanOut(nm, func(i int) {
		conn := topo.members[i]
		errs[i] = nil
		chg[i] = false
		if j := topo.rowOf[i]; hasRate[j] {
			// The latest collect probed each member's enforced limit; a
			// member already at the target rate costs no push RPC — the
			// same steady-state skip the flat loop gets from its collect
			// probes. (Probes are only written in the fold, so this
			// concurrent read is race-free under roundMu.)
			if p := probes[i]; !(p.ok && p.hasCtl && p.ctlLimit == rates[j]) {
				found, err := conn.SetRate(ControlRuleID, rates[j])
				if err == nil && !found {
					// The member lost its managed queue (restart): reinstall.
					err = conn.ApplyRule(a.managedRule(topo.jobs[j], rates[j]))
				}
				if err != nil {
					errs[i] = err
					chg[i] = true // excluded from the fold: rows must rebuild
					return
				}
			}
		}
		if args.Collect {
			// A DeltaConn with a live slot materialization answers the
			// steady state with "unchanged" and buf[i] is left as-is —
			// no snapshot copy, and if the whole shard is unchanged the
			// fold below is skipped too. First contact (or any conn
			// without the capability) takes the materializing path.
			if dc, ok := conn.(DeltaConn); ok && fresh[i] {
				changed, err := dc.CollectChangedInto(&buf[i])
				errs[i] = err
				chg[i] = changed || err != nil
			} else {
				errs[i] = collectConn(conn, &buf[i])
				chg[i] = true
				if errs[i] == nil {
					fresh[i] = true
				}
			}
		}
	})

	// Fold in member (StageID-sorted) order: rows and failure counts are
	// deterministic whatever the worker interleaving was.
	reply.AggID = a.id
	reply.Stages = nm
	if args.Collect {
		rebuild := !a.rowsValid
		anyErr := false
		for i := range topo.members {
			if chg[i] {
				rebuild = true
			}
			if errs[i] != nil {
				anyErr = true
			}
		}
		rows := a.rows[:nj]
		if rebuild {
			for j := range rows {
				rows[j] = rpcio.AggJobDelta{JobID: topo.jobs[j]}
			}
			for i, conn := range topo.members {
				row := &rows[topo.rowOf[i]]
				if err := errs[i]; err != nil {
					a.onError(conn.Info().StageID, err)
					probes[i] = stageProbe{}
					row.FailedStages++
					continue
				}
				row.Stages++
				probe := stageProbe{ok: true}
				for _, q := range buf[i].Queues {
					if q.RuleID != ControlRuleID {
						continue
					}
					probe.hasCtl = true
					probe.ctlLimit = q.Limit
					row.Demand += q.DemandRate
					row.Throughput += q.ThroughputRate
					row.Dropped += q.Dropped
					if q.WaitP99 > row.WaitP99 {
						row.WaitP99 = q.WaitP99
					}
				}
				probes[i] = probe
			}
			// Rows with a failed member must rebuild next round: the
			// member may recover without its stats changing, and a cached
			// row would keep counting it failed.
			a.rowsValid = !anyErr
		}
		// Not rebuilt: every member answered "unchanged", so last round's
		// rows (and probes) already describe this round exactly.
		reply.Jobs = append(reply.Jobs, rows...)
	} else {
		for i, conn := range topo.members {
			if errs[i] != nil {
				a.onError(conn.Info().StageID, errs[i])
			}
		}
	}
	reply.Borrowed, reply.Repaid, reply.Forgiven = a.BorrowCounts()
	return nil
}

// Close closes every member connection and stops the fan-out workers.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	topo := a.topo
	a.topo = &aggTopo{}
	a.mu.Unlock()
	a.roundMu.Lock()
	if a.work != nil {
		close(a.work)
		a.work = nil
	}
	a.roundMu.Unlock()
	var first error
	for _, m := range topo.members {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- controller-side aggregator connections ----

// AggConn abstracts the controller's channel to one aggregator, the
// tree-mode analogue of StageConn: in-process shards use LocalAggConn,
// remote shards a dialed rpcio.AggHandle via NewRemoteAggConn.
type AggConn interface {
	// ID returns the aggregator's identity.
	ID() string
	// Round drives one control round: grants fan down, and when collect
	// is set the merged per-job delta lands in reply (fully
	// overwritten).
	Round(grants []rpcio.JobGrant, collect bool, reply *rpcio.AggRoundReply) error
	// Close releases the connection.
	Close() error
}

// LocalAggConn drives an in-process Aggregator directly, mirroring
// LocalConn for stages.
type LocalAggConn struct {
	Agg *Aggregator
}

var _ AggConn = (*LocalAggConn)(nil)

// ID implements AggConn.
func (c *LocalAggConn) ID() string { return c.Agg.ID() }

// Round implements AggConn, honoring the wire contract that the reply
// is fully overwritten with slice capacity reused.
func (c *LocalAggConn) Round(grants []rpcio.JobGrant, collect bool, reply *rpcio.AggRoundReply) error {
	args := rpcio.AggRoundArgs{Grants: grants, Collect: collect}
	*reply = rpcio.AggRoundReply{Jobs: reply.Jobs[:0]}
	return c.Agg.Round(&args, reply)
}

// Close implements AggConn without closing the aggregator's members:
// an in-process aggregator's lifecycle belongs to whoever built it.
func (c *LocalAggConn) Close() error { return nil }

// RemoteAggConn drives an aggregator over the frame transport.
type RemoteAggConn struct {
	id     string
	handle *rpcio.AggHandle
}

var (
	_ AggConn     = (*RemoteAggConn)(nil)
	_ WireStatser = (*RemoteAggConn)(nil)
)

// NewRemoteAggConn attaches to the aggregator behind handle, learning
// its identity from the Agg.Attach handshake.
func NewRemoteAggConn(handle *rpcio.AggHandle) (*RemoteAggConn, error) {
	info, err := handle.Attach(0)
	if err != nil {
		return nil, fmt.Errorf("control: attach aggregator: %w", err)
	}
	return &RemoteAggConn{id: info.AggID, handle: handle}, nil
}

// ID implements AggConn.
func (c *RemoteAggConn) ID() string { return c.id }

// Round implements AggConn.
func (c *RemoteAggConn) Round(grants []rpcio.JobGrant, collect bool, reply *rpcio.AggRoundReply) error {
	return c.handle.Round(grants, collect, reply)
}

// WireStats implements WireStatser.
func (c *RemoteAggConn) WireStats() rpcio.WireStats { return c.handle.WireStats() }

// Close implements AggConn.
func (c *RemoteAggConn) Close() error { return c.handle.Close() }

// ---- controller tree mode ----

// WithTopology enables the hierarchical (tree) control plane with
// automatic sharding: registered stages are grouped, in StageID order,
// into in-process Aggregators of at most shardSize members, rebuilt
// whenever the registry changes. Aggregators registered explicitly via
// RegisterAggregator also switch the loop into tree mode and are never
// auto-rebuilt.
func WithTopology(shardSize int) Option {
	return func(c *Controller) {
		if shardSize > 0 {
			c.shardSize = shardSize
		}
	}
}

// WithBorrowing enables decentralized token borrowing inside every
// auto-built shard (see WithTopology): sibling stages under one
// aggregator share a borrow pool on the managed control queue with the
// given per-member debt budget (a fraction of burst capacity;
// non-positive selects tokenbucket.DefaultBorrowBudget).
func WithBorrowing(budget float64) Option {
	return func(c *Controller) {
		c.borrow = true
		c.borrowBudget = budget
	}
}

// RegisterAggregator adds an aggregator shard to the registry; any
// registered aggregator switches RunOnce into tree mode. Re-registering
// an ID replaces (and closes) the previous connection.
func (c *Controller) RegisterAggregator(conn AggConn) {
	id := conn.ID()
	c.mu.Lock()
	if c.aggs == nil {
		c.aggs = make(map[string]AggConn)
	}
	old := c.aggs[id]
	c.aggs[id] = conn
	c.mu.Unlock()
	if old != nil && old != conn {
		// The replaced connection is unreachable from the loop now; its
		// close error carries no recovery path.
		_ = old.Close()
	}
}

// DeregisterAggregator removes (and closes) an aggregator shard,
// reporting whether it was registered.
func (c *Controller) DeregisterAggregator(id string) bool {
	c.mu.Lock()
	conn, ok := c.aggs[id]
	delete(c.aggs, id)
	c.mu.Unlock()
	if ok {
		_ = conn.Close()
	}
	return ok
}

// Aggregators returns the registered aggregator IDs, sorted.
func (c *Controller) Aggregators() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.aggs))
	for id := range c.aggs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// treeEnabled reports whether RunOnce should take the tree path, and
// rebuilds the auto-sharded topology first when it is stale.
func (c *Controller) treeEnabled() bool {
	c.mu.Lock()
	shard := c.shardSize
	stale := shard > 0 && c.topoRev != c.registryRev && len(c.stages) > 0
	enabled := len(c.aggs) > 0 || shard > 0 && len(c.stages) > 0
	c.mu.Unlock()
	if stale {
		c.buildTopology()
	}
	return enabled
}

// buildTopology (re)shards the registered stages into in-process
// aggregators: StageID order, at most shardSize members each, named
// agg-0000, agg-0001, ... — a pure function of the registry, so
// same-seed chaos runs shard identically. Explicitly registered
// aggregators (IDs outside the auto-built namespace) are preserved.
func (c *Controller) buildTopology() {
	c.mu.Lock()
	shard := c.shardSize
	reg := c.registryLocked()
	conns, rev := reg.conns, reg.rev
	borrow, budget := c.borrow, c.borrowBudget
	c.mu.Unlock()
	if shard <= 0 {
		return
	}

	built := make(map[string]AggConn)
	for i := 0; i < len(conns); i += shard {
		end := i + shard
		if end > len(conns) {
			end = len(conns)
		}
		opts := []AggOption{WithAggErrorHandler(c.onError)}
		if borrow {
			opts = append(opts, WithAggBorrowing(budget))
		}
		agg := NewAggregator(fmt.Sprintf("agg-%04d", i/shard), opts...)
		for _, conn := range conns[i:end] {
			agg.AddMember(conn)
		}
		built[agg.ID()] = &LocalAggConn{Agg: agg}
	}

	c.mu.Lock()
	if c.aggs == nil {
		c.aggs = make(map[string]AggConn)
	}
	// Drop stale auto-built shards, keep explicit registrations.
	for id := range c.aggs {
		if _, rebuilt := built[id]; rebuilt {
			continue
		}
		if len(id) == 8 && id[:4] == "agg-" {
			delete(c.aggs, id)
		}
	}
	for id, conn := range built {
		c.aggs[id] = conn
	}
	c.topoRev = rev
	c.mu.Unlock()
}

// aggRoundSetup snapshots what a tree round needs from under the lock.
func (c *Controller) aggRoundSetup() (aggs []AggConn, reservations, lastAlloc map[string]float64, workers, pushWorkers int) {
	c.mu.Lock()
	aggs = make([]AggConn, 0, len(c.aggs))
	for _, conn := range c.aggs {
		aggs = append(aggs, conn)
	}
	reservations = make(map[string]float64, len(c.reservations))
	for k, v := range c.reservations {
		reservations[k] = v
	}
	lastAlloc = make(map[string]float64, len(c.lastAlloc))
	for k, v := range c.lastAlloc {
		lastAlloc[k] = v
	}
	workers, pushWorkers = c.collectWorkers, c.pushWorkers
	c.mu.Unlock()
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].ID() < aggs[j].ID() })
	return aggs, reservations, lastAlloc, workers, pushWorkers
}

// aggScratch sizes the positional tree-round scratch for n aggregators.
// Caller must hold roundMu.
func (c *Controller) aggScratch(n int) ([]rpcio.AggRoundReply, []error) {
	for len(c.aggReplies) < n {
		c.aggReplies = append(c.aggReplies, rpcio.AggRoundReply{})
	}
	for len(c.aggErrs) < n {
		c.aggErrs = append(c.aggErrs, nil)
	}
	return c.aggReplies[:n], c.aggErrs[:n]
}

// runOnceTree is RunOnce over the aggregator tier: one collect Round
// per shard, fold per job across shards, allocate, then one push Round
// per shard carrying its grants — each job's allocation split across
// shards in proportion to the member stages the collect just reported.
// A shard that fails a phase is reported and skipped (its stages keep
// enforcing frozen rates, and shard-local borrowing keeps them
// work-conserving); it re-joins the loop the moment it answers again.
func (c *Controller) runOnceTree() map[string]float64 {
	c.mu.Lock()
	alg := c.algorithm
	if c.limitAdapter != nil {
		c.clusterLimit = c.limitAdapter.AdjustLimit(c.clusterLimit)
	}
	limit := c.clusterLimit
	c.mu.Unlock()
	if alg == nil {
		return nil
	}

	aggs, reservations, lastAlloc, workers, pushWorkers := c.aggRoundSetup()
	start := c.clk.Now()
	rs := RoundStats{Aggregators: len(aggs)}
	wireConns, wireBefore := c.aggWireSample(aggs)

	c.roundMu.Lock()
	replies, errs := c.aggScratch(len(aggs))

	// Collect phase: one Round per shard, merged deltas up.
	runBounded(len(aggs), workers, func(i int) {
		replies[i] = rpcio.AggRoundReply{Jobs: replies[i].Jobs[:0]}
		errs[i] = aggs[i].Round(nil, true, &replies[i])
	})

	// Fold in sorted aggregator order. shardStages[job][i] is how many
	// member stages shard i reported for the job — the push phase's
	// proportional split.
	snapBy := make(map[string]*JobSnapshot)
	shardStages := make(map[string][]int)
	var order []string
	for i := range aggs {
		rs.CollectCalls++
		if err := errs[i]; err != nil {
			rs.CollectFailures++
			c.onError(aggs[i].ID(), err)
			continue
		}
		rep := &replies[i]
		rs.Stages += rep.Stages
		rs.TokensBorrowed += rep.Borrowed
		rs.TokensRepaid += rep.Repaid
		rs.TokensForgiven += rep.Forgiven
		for _, row := range rep.Jobs {
			snap, ok := snapBy[row.JobID]
			if !ok {
				snap = &JobSnapshot{
					JobID:       row.JobID,
					Reservation: reservations[row.JobID],
					Allocated:   lastAlloc[row.JobID],
				}
				snapBy[row.JobID] = snap
				shardStages[row.JobID] = make([]int, len(aggs))
				order = append(order, row.JobID)
			}
			snap.Stages += row.Stages
			snap.Demand += row.Demand
			snap.Throughput += row.Throughput
			snap.FailedStages += row.FailedStages
			if row.WaitP99 > snap.WaitP99 {
				snap.WaitP99 = row.WaitP99
			}
			shardStages[row.JobID][i] = row.Stages
		}
	}
	sort.Strings(order)
	jobs := make([]JobState, 0, len(order))
	for _, job := range order {
		s := snapBy[job]
		jobs = append(jobs, JobState{
			JobID:       s.JobID,
			Demand:      s.Demand,
			Reservation: s.Reservation,
			Stages:      s.Stages,
		})
	}
	alloc := alg.Allocate(limit, jobs)

	// Push phase: split each job's grant across the shards that hold its
	// stages, proportional to this round's reported member counts. The
	// per-shard grant slices are roundMu-owned scratch (capacity reused).
	for len(c.aggGrants) < len(aggs) {
		c.aggGrants = append(c.aggGrants, nil)
	}
	grants := c.aggGrants[:len(aggs)]
	for i := range grants {
		grants[i] = grants[i][:0]
	}
	for _, job := range order {
		total := snapBy[job].Stages
		if total == 0 {
			continue
		}
		rate, ok := alloc[job]
		if !ok {
			continue
		}
		for i, n := range shardStages[job] {
			if n == 0 {
				continue
			}
			grants[i] = append(grants[i], rpcio.JobGrant{
				JobID: job,
				Rate:  rate * float64(n) / float64(total),
			})
		}
	}
	runBounded(len(aggs), pushWorkers, func(i int) {
		errs[i] = nil
		if len(grants[i]) == 0 {
			return
		}
		replies[i] = rpcio.AggRoundReply{Jobs: replies[i].Jobs[:0]}
		errs[i] = aggs[i].Round(grants[i], false, &replies[i])
	})
	for i := range aggs {
		if len(grants[i]) == 0 {
			rs.PushesSkipped++
			continue
		}
		rs.PushCalls++
		rs.PushOps += len(grants[i])
		if errs[i] != nil {
			c.onError(aggs[i].ID(), errs[i])
		}
	}
	c.roundMu.Unlock()

	rs.Duration = c.clk.Now().Sub(start)
	for i, w := range wireConns {
		after := w.WireStats()
		rs.BytesRead += after.BytesRead - wireBefore[i].BytesRead
		rs.BytesWritten += after.BytesWritten - wireBefore[i].BytesWritten
	}
	c.mu.Lock()
	c.lastAlloc = alloc
	c.lastRound = rs
	c.haveRound = true
	c.mu.Unlock()
	return alloc
}

// aggWireSample snapshots traffic counters of aggregator connections
// that expose them.
func (c *Controller) aggWireSample(aggs []AggConn) ([]WireStatser, []rpcio.WireStats) {
	var ws []WireStatser
	for _, conn := range aggs {
		if w, ok := conn.(WireStatser); ok {
			ws = append(ws, w)
		}
	}
	before := make([]rpcio.WireStats, len(ws))
	for i, w := range ws {
		before[i] = w.WireStats()
	}
	return ws, before
}

package control

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// ControlRuleID is the rule/queue name the feedback loop manages on every
// stage.
const ControlRuleID = "padll-control"

// Controller is the control plane core. It maintains the stage registry,
// groups stages by job (§III-B: "orchestrating the stages that belong to
// the same job-ID as a single one"), serves administrator policy
// operations at per-job, group-of-jobs, and cluster-wide granularity, and
// runs the feedback control loop when an Algorithm is installed.
type Controller struct {
	clk clock.Clock

	mu           sync.Mutex
	stages       map[string]StageConn // by StageID
	reservations map[string]float64   // per-job reserved rate
	clusterLimit float64
	algorithm    Algorithm
	// controlled is the matcher template for the feedback loop's managed
	// queue on every stage.
	controlled policy.Matcher
	// limitAdapter, when set, retunes clusterLimit each loop iteration.
	limitAdapter LimitAdapter
	// groupBy derives the orchestration entity from a stage's identity;
	// the default groups by JobID (§III-B), but administrators may group
	// by user or project ("group of jobs" granularity).
	groupBy          func(stage.Info) string
	isDefaultGroupBy bool
	onError          func(stageID string, err error)
	lastAlloc        map[string]float64
	loopStop         chan struct{}
	loopDone         chan struct{}

	// collectWorkers bounds CollectAll's fan-out (default 8): the loop
	// tolerates slow stages without serializing behind them, but a
	// thousand-stage registry must not burst a thousand goroutines.
	collectWorkers int
	// pushWorkers bounds RunOnce's push fan-out the same way (default 8;
	// 1 forces sequential pushes in sorted order, which the chaos
	// harness relies on for deterministic fault injection).
	pushWorkers int
	// lastRound is the most recent RunOnce's accounting.
	lastRound RoundStats
	haveRound bool
	// evictAfter is the mark-sweep threshold: a stage whose collect/push
	// RPCs fail this many consecutive rounds is evicted from the registry
	// (0 disables eviction — dead stages are skipped but kept).
	evictAfter int
	// misses counts consecutive communication failures per stage (the
	// "mark" half of mark-sweep; any success clears the mark).
	misses map[string]int
	// adminRules and clusterRules remember administrator intent (the
	// aggregate rule, pre-split) per group and cluster-wide, so an
	// idempotent re-registration replays the last-known rule set onto a
	// restarted stage.
	adminRules   map[string]map[string]policy.Rule
	clusterRules map[string]policy.Rule

	// pipelined fuses each round's pushes with its collect
	// (WithPipelinedRounds); prevProbes carries the latest round's
	// probes across rounds so the fused push can skip stages already at
	// target.
	pipelined  bool
	prevProbes map[string]stageProbe

	// roundMu serializes collect rounds; it single-owns the scratch
	// below and is never held while taking mu (the fold inside takes mu
	// briefly via noteMiss/noteOK, so the order is roundMu then mu).
	roundMu sync.Mutex
	// collectBuf/collectErr are positional per-stage scratch reused
	// across rounds: slot i is fully overwritten each round, so a
	// steady-state collect keeps its Queues capacity and allocates
	// nothing per stage.
	collectBuf []stage.Stats
	collectErr []error

	// aggs is the aggregator registry; any entry switches RunOnce into
	// tree mode (see aggregator.go). shardSize > 0 (WithTopology) also
	// enables tree mode with auto-built in-process shards, optionally
	// borrowing (WithBorrowing) inside each.
	aggs         map[string]AggConn
	shardSize    int
	borrow       bool
	borrowBudget float64
	// registryRev counts stage registry mutations; topoRev is the
	// revision the auto-built topology last sharded, so a changed
	// registry reshards lazily at the next tree round.
	registryRev int
	topoRev     int
	// aggReplies/aggErrs are the tree round's positional per-shard
	// scratch, single-owned by roundMu like collectBuf/collectErr.
	aggReplies []rpcio.AggRoundReply
	aggErrs    []error
	aggGrants  [][]rpcio.JobGrant
}

// Option configures a Controller.
type Option func(*Controller)

// WithClusterLimit sets the maximum aggregate rate the algorithm may hand
// out (the paper's 300 KOps/s PFS metadata cap in §IV-B).
func WithClusterLimit(limit float64) Option {
	return func(c *Controller) { c.clusterLimit = limit }
}

// WithAlgorithm installs the control algorithm evaluated by the loop.
func WithAlgorithm(a Algorithm) Option {
	return func(c *Controller) { c.algorithm = a }
}

// WithControlledMatcher overrides which requests the managed queue
// throttles (default: metadata, directory, and ext-attr classes — the
// operations that land on the MDS).
func WithControlledMatcher(m policy.Matcher) Option {
	return func(c *Controller) { c.controlled = m }
}

// WithLimitAdapter installs a dynamic cluster-limit policy (e.g.
// AIMDLimit probing the MDS) applied at the start of every feedback-loop
// iteration.
func WithLimitAdapter(a LimitAdapter) Option {
	return func(c *Controller) { c.limitAdapter = a }
}

// WithGroupBy overrides how stages aggregate into orchestration entities
// for the feedback loop: the default is per job; GroupByUser implements
// the paper's "group of jobs" granularity by sharing one allocation among
// all of a user's jobs.
func WithGroupBy(f func(stage.Info) string) Option {
	return func(c *Controller) {
		c.groupBy = f
		c.isDefaultGroupBy = false
	}
}

// GroupByUser groups stages by submitting user.
func GroupByUser(info stage.Info) string { return info.User }

// WithErrorHandler installs a sink for stage-communication errors; the
// default drops them (a dead stage is simply skipped until it
// re-registers).
func WithErrorHandler(f func(stageID string, err error)) Option {
	return func(c *Controller) { c.onError = f }
}

// WithCollectConcurrency bounds how many stages CollectAll queries in
// parallel (default 8; 1 forces sequential collection).
func WithCollectConcurrency(n int) Option {
	return func(c *Controller) {
		if n > 0 {
			c.collectWorkers = n
		}
	}
}

// WithPushConcurrency bounds how many stages RunOnce pushes rates to in
// parallel (default 8; 1 forces sequential pushes in sorted job/stage
// order). Whatever the bound, push outcomes are folded in sorted order,
// so error reporting and eviction marks stay deterministic.
func WithPushConcurrency(n int) Option {
	return func(c *Controller) {
		if n > 0 {
			c.pushWorkers = n
		}
	}
}

// WithEvictAfter enables mark-sweep eviction: a stage that fails n
// consecutive control rounds is deregistered and its group's share
// released for redistribution. n <= 0 disables eviction.
func WithEvictAfter(n int) Option {
	return func(c *Controller) { c.evictAfter = n }
}

// WithPipelinedRounds fuses each RunOnce's push phase with its collect:
// the allocation computed at the end of round N rides round N+1's
// Stage.Batch exchange alongside the incremental collect, so a
// steady-state round costs one round trip per stage instead of two.
// The price is one round of staleness (a rate computed this round is
// enforced next round) and a coarser failure signal (a dead stage
// accrues one eviction mark per round, not two), which is why the
// two-phase loop stays the default — the chaos harness depends on its
// fault interleavings.
func WithPipelinedRounds() Option {
	return func(c *Controller) { c.pipelined = true }
}

// New returns a controller. A nil clk defaults to the wall clock (the
// loop timestamps its round accounting even when the caller never
// starts Run).
func New(clk clock.Clock, opts ...Option) *Controller {
	if clk == nil {
		clk = clock.NewReal()
	}
	c := &Controller{
		clk:          clk,
		stages:       make(map[string]StageConn),
		reservations: make(map[string]float64),
		controlled: policy.Matcher{Classes: []posix.Class{
			posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr,
		}},
		groupBy:          func(info stage.Info) string { return info.JobID },
		isDefaultGroupBy: true,
		onError:          func(string, error) {},
		lastAlloc:        make(map[string]float64),
		collectWorkers:   8,
		pushWorkers:      8,
		misses:           make(map[string]int),
		adminRules:       make(map[string]map[string]policy.Rule),
		clusterRules:     make(map[string]policy.Rule),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Clock exposes the controller's time source so collaborators (the HTTP
// monitor, reports) timestamp with the same clock the feedback loop runs
// on — real time in production, simulated time in experiment replays.
func (c *Controller) Clock() clock.Clock { return c.clk }

// ---- registry ----

// Register adds a stage to the registry. A stage re-registering under an
// existing ID (restart or reconnect after a network failure — the
// dependability case §VI highlights) replaces its previous connection,
// which is closed, and has its failure marks cleared. If an algorithm is
// active, the stage immediately receives the managed control queue — at
// its group's last-known per-stage allocation when one exists, so a
// restarted stage resumes the frozen rate rather than resetting to an
// equal share. Administrator rules recorded for the group (and
// cluster-wide) are replayed onto the connection, making re-registration
// idempotent: a stage that lost its state comes back with the last-known
// rule set.
func (c *Controller) Register(conn StageConn) error {
	info := conn.Info()
	id := info.StageID
	c.mu.Lock()
	old := c.stages[id]
	c.stages[id] = conn
	c.registryRev++
	delete(c.misses, id)
	alg := c.algorithm
	key := c.groupBy(info)
	rate, haveAlloc := 0.0, false
	if a, ok := c.lastAlloc[key]; ok {
		if n := len(c.stagesOfJobLocked(key)); n > 0 {
			rate, haveAlloc = a/float64(n), true
		}
	}
	replay := c.replayRulesLocked(key)
	c.mu.Unlock()

	if old != nil && old != conn {
		// A replaced connection's close error is unactionable here: the
		// new connection is already installed.
		_ = old.Close()
	}
	if alg != nil {
		// Without a recorded allocation, start at a conservative equal
		// share; the next loop iteration assigns the real rate.
		if !haveAlloc {
			rate = c.initialRate()
		}
		rule := c.managedRuleFor(key, rate)
		if bc, ok := conn.(BatchConn); ok {
			// Control rule plus the whole replay set in one round trip —
			// what keeps a re-registration storm (every stage reconnecting
			// after a controller restart) from multiplying into
			// rules×stages RPCs.
			ops := make([]rpcio.StageOp, 0, 1+len(replay))
			ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: rule})
			for _, r := range replay {
				ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: r})
			}
			if _, _, err := bc.ExecBatch(ops, false); err != nil {
				return fmt.Errorf("control: install rules on %s: %w", id, err)
			}
			return nil
		}
		if err := conn.ApplyRule(rule); err != nil {
			return fmt.Errorf("control: install control rule on %s: %w", id, err)
		}
	}
	for _, r := range replay {
		if err := conn.ApplyRule(r); err != nil {
			c.onError(id, fmt.Errorf("control: replay rule %s: %w", r.ID, err))
		}
	}
	return nil
}

// replayRulesLocked materializes the per-stage form of every recorded
// administrator rule a (re-)registering stage of group key should carry,
// in deterministic (ID-sorted) order. Rates are split by the group's
// current stage count, matching how the rules were originally pushed.
func (c *Controller) replayRulesLocked(key string) []policy.Rule {
	var out []policy.Rule
	if group := c.adminRules[key]; len(group) > 0 {
		n := len(c.stagesOfJobLocked(key))
		ids := make([]string, 0, len(group))
		for rid := range group {
			ids = append(ids, rid)
		}
		sort.Strings(ids)
		for _, rid := range ids {
			r := group[rid]
			if r.Rate != policy.Unlimited && n > 1 {
				r.Rate /= float64(n)
			}
			out = append(out, r)
		}
	}
	if len(c.clusterRules) > 0 {
		n := len(c.stages)
		ids := make([]string, 0, len(c.clusterRules))
		for rid := range c.clusterRules {
			ids = append(ids, rid)
		}
		sort.Strings(ids)
		for _, rid := range ids {
			r := c.clusterRules[rid]
			if r.Rate != policy.Unlimited && n > 1 {
				r.Rate /= float64(n)
			}
			out = append(out, r)
		}
	}
	return out
}

// groupKey derives the orchestration entity key for a stage.
func (c *Controller) groupKey(info stage.Info) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groupBy(info)
}

// initialRate is the rate a just-registered job starts at before
// the first allocation round: an equal share of the cluster limit.
func (c *Controller) initialRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.jobIDsLocked())
	if n == 0 {
		n = 1
	}
	if c.clusterLimit <= 0 {
		return policy.Unlimited
	}
	return c.clusterLimit / float64(n)
}

// managedRuleFor builds the control rule for an entity's stages. Under
// the default grouping the matcher scopes by job-ID; custom groupings
// leave the matcher unscoped (each stage belongs to exactly one entity,
// so the queue's rate is the scoping).
func (c *Controller) managedRuleFor(key string, rate float64) policy.Rule {
	m := c.controlled
	if c.isDefaultGroupBy {
		m.JobID = key
	}
	return policy.Rule{ID: ControlRuleID, Match: m, Rate: rate}
}

// Deregister removes a stage (job completion, node failure, or
// eviction). When the stage was its group's last, the group's share is
// released — residual allocation, reservation, and recorded rules are
// dropped — so the next RunOnce redistributes the rate to the remaining
// jobs instead of holding it for a departed one.
func (c *Controller) Deregister(stageID string) bool {
	c.mu.Lock()
	conn, ok := c.stages[stageID]
	if ok {
		key := c.groupBy(conn.Info())
		delete(c.stages, stageID)
		c.registryRev++
		delete(c.misses, stageID)
		if len(c.stagesOfJobLocked(key)) == 0 {
			delete(c.lastAlloc, key)
			delete(c.reservations, key)
			delete(c.adminRules, key)
		}
	}
	c.mu.Unlock()
	if ok {
		// The stage is gone (job completion or node failure); its close
		// error carries no recovery path.
		_ = conn.Close()
	}
	return ok
}

// ErrEvicted is reported to the error handler for each stage removed by
// mark-sweep eviction.
var ErrEvicted = errors.New("control: stage evicted after repeated failures")

// EvictDead sweeps the registry: every stage whose consecutive-failure
// mark reached the eviction threshold is deregistered (releasing its
// group's share, see Deregister) and reported to the error handler with
// ErrEvicted. It returns the evicted stage IDs, sorted. RunOnce calls
// this between collect and allocate; it is exported for callers driving
// the loop manually.
func (c *Controller) EvictDead() []string {
	c.mu.Lock()
	threshold := c.evictAfter
	var ids []string
	if threshold > 0 {
		for id, n := range c.misses {
			if n >= threshold {
				ids = append(ids, id)
			}
		}
	}
	c.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		if c.Deregister(id) {
			c.onError(id, ErrEvicted)
		}
	}
	return ids
}

// noteMiss marks one failed exchange with a stage; noteOK clears the
// mark.
func (c *Controller) noteMiss(stageID string) {
	c.mu.Lock()
	if _, ok := c.stages[stageID]; ok {
		c.misses[stageID]++
	}
	c.mu.Unlock()
}

func (c *Controller) noteOK(stageID string) {
	c.mu.Lock()
	delete(c.misses, stageID)
	c.mu.Unlock()
}

// Stages returns the registered stage identities, sorted by StageID.
func (c *Controller) Stages() []stage.Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]stage.Info, 0, len(c.stages))
	for _, conn := range c.stages {
		out = append(out, conn.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StageID < out[j].StageID })
	return out
}

// Jobs returns the distinct job IDs with at least one registered stage.
func (c *Controller) Jobs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobIDsLocked()
}

func (c *Controller) jobIDsLocked() []string {
	seen := map[string]bool{}
	var out []string
	for _, conn := range c.stages {
		j := c.groupBy(conn.Info())
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	sort.Strings(out)
	return out
}

// stagesOfJobLocked returns the connections serving an orchestration
// entity (a job under the default grouping).
func (c *Controller) stagesOfJobLocked(jobID string) []StageConn {
	var out []StageConn
	for _, conn := range c.stages {
		if c.groupBy(conn.Info()) == jobID {
			out = append(out, conn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info().StageID < out[j].Info().StageID })
	return out
}

// ---- administrator operations (simple policies) ----

// ApplyRuleToJob installs a rule on every stage of one job (per-job
// granularity). The per-stage rate is the job rate divided by the job's
// stage count, so a distributed job's aggregate stays at the intent.
func (c *Controller) ApplyRuleToJob(jobID string, r policy.Rule) error {
	c.mu.Lock()
	conns := c.stagesOfJobLocked(jobID)
	if len(conns) > 0 {
		// Remember the aggregate intent so a restarted stage of this
		// group gets the rule replayed at re-registration.
		if c.adminRules[jobID] == nil {
			c.adminRules[jobID] = make(map[string]policy.Rule)
		}
		c.adminRules[jobID][r.ID] = r
	}
	c.mu.Unlock()
	if len(conns) == 0 {
		return fmt.Errorf("control: no stages for job %q", jobID)
	}
	perStage := r
	if r.Rate != policy.Unlimited && len(conns) > 1 {
		perStage.Rate = r.Rate / float64(len(conns))
	}
	for _, conn := range conns {
		if err := conn.ApplyRule(perStage); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRuleToJobs installs a rule on a group of jobs (group granularity),
// splitting the rate equally across the jobs and then across each job's
// stages.
func (c *Controller) ApplyRuleToJobs(jobIDs []string, r policy.Rule) error {
	if len(jobIDs) == 0 {
		return fmt.Errorf("control: empty job group")
	}
	perJob := r
	if r.Rate != policy.Unlimited {
		perJob.Rate = r.Rate / float64(len(jobIDs))
	}
	for _, j := range jobIDs {
		if err := c.ApplyRuleToJob(j, perJob); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRuleCluster installs a rule on every registered stage
// (cluster-wide granularity), splitting the rate across all stages.
func (c *Controller) ApplyRuleCluster(r policy.Rule) error {
	c.mu.Lock()
	conns := make([]StageConn, 0, len(c.stages))
	for _, conn := range c.stages {
		conns = append(conns, conn)
	}
	if len(conns) > 0 {
		c.clusterRules[r.ID] = r
	}
	c.mu.Unlock()
	if len(conns) == 0 {
		return fmt.Errorf("control: no registered stages")
	}
	perStage := r
	if r.Rate != policy.Unlimited && len(conns) > 1 {
		perStage.Rate = r.Rate / float64(len(conns))
	}
	for _, conn := range conns {
		if err := conn.ApplyRule(perStage); err != nil {
			return err
		}
	}
	return nil
}

// SetReservation records a job's reserved/priority rate used by
// FixedRates and ProportionalShare.
func (c *Controller) SetReservation(jobID string, rate float64) {
	c.mu.Lock()
	c.reservations[jobID] = rate
	c.mu.Unlock()
}

// SetAlgorithm swaps the control algorithm at runtime.
func (c *Controller) SetAlgorithm(a Algorithm) {
	c.mu.Lock()
	c.algorithm = a
	c.mu.Unlock()
}

// ---- feedback control loop ----

// JobSnapshot is one job's aggregated state from a collect round.
type JobSnapshot struct {
	JobID       string
	Stages      int
	Demand      float64 // aggregate arrival rate, ops/s
	Throughput  float64 // aggregate admitted rate, ops/s
	Allocated   float64 // rate granted by the last allocation
	Reservation float64
	// WaitP50/WaitP95/WaitP99 are the worst (max) control-queue shaping
	// wait percentiles across the job's stages, in seconds — the
	// queueing delay the current allocation is costing the job.
	WaitP50 float64
	WaitP95 float64
	WaitP99 float64
	// Degraded reports that at least one of the job's stages is running
	// in degraded mode (enforcing frozen limits without its controller);
	// DegradedStages counts them and DegradedSeconds is the worst
	// cumulative outage among them.
	Degraded        bool
	DegradedStages  int
	DegradedSeconds float64
	// FailedStages counts registered stages of the job that did not
	// answer this collect round (the snapshot is partial).
	FailedStages int
}

// runBounded runs fn(i) for every i in [0, n) on at most workers
// concurrent goroutines; workers <= 1 degenerates to a sequential loop
// in index order. Exactly min(workers, n) goroutines are spawned,
// pulling indices from a shared channel — a thousand-stage registry
// must not burst a thousand goroutines per round just to gate them on
// a semaphore.
func runBounded(n, workers int, fn func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// stageProbe is what a collect round learns about one stage beyond the
// per-job aggregates: whether it answered, and the managed control
// queue's currently enforced limit. The push phase uses it to skip
// stages that already enforce the target rate and to spot stages that
// lost their managed queue.
type stageProbe struct {
	ok       bool
	hasCtl   bool
	ctlLimit float64
}

// CollectAll gathers statistics from every stage, aggregated per job
// (feedback-loop step 1). Stages are queried concurrently under a
// bounded worker pool, but results are folded in StageID order, so the
// output — and everything downstream of it — is deterministic. Stages
// that fail to respond are reported to the error handler, marked for
// eviction, and skipped: the loop runs on partial snapshots rather than
// blocking behind a dead peer.
func (c *Controller) CollectAll() []JobSnapshot {
	snaps, _ := c.collectRound(nil)
	return snaps
}

// roundSetup snapshots everything a collect round needs from under the
// registry lock: the sorted connection list and copies of the maps the
// fold reads.
func (c *Controller) roundSetup() (conns []StageConn, reservations, lastAlloc map[string]float64, groupBy func(stage.Info) string, workers int) {
	c.mu.Lock()
	conns = make([]StageConn, 0, len(c.stages))
	for _, conn := range c.stages {
		conns = append(conns, conn)
	}
	reservations = make(map[string]float64, len(c.reservations))
	for k, v := range c.reservations {
		reservations[k] = v
	}
	lastAlloc = make(map[string]float64, len(c.lastAlloc))
	for k, v := range c.lastAlloc {
		lastAlloc[k] = v
	}
	groupBy = c.groupBy
	workers = c.collectWorkers
	c.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].Info().StageID < conns[j].Info().StageID })
	return conns, reservations, lastAlloc, groupBy, workers
}

// roundScratch sizes the positional collect scratch for n stages.
// Caller must hold roundMu.
func (c *Controller) roundScratch(n int) ([]stage.Stats, []error) {
	for len(c.collectBuf) < n {
		c.collectBuf = append(c.collectBuf, stage.Stats{})
	}
	for len(c.collectErr) < n {
		c.collectErr = append(c.collectErr, nil)
	}
	return c.collectBuf[:n], c.collectErr[:n]
}

// collectConn gathers one stage's statistics into caller-owned dst,
// using the allocation-free CollectInto extension when the connection
// offers it.
func collectConn(conn StageConn, dst *stage.Stats) error {
	if ci, ok := conn.(CollectIntoConn); ok {
		return ci.CollectInto(dst)
	}
	st, err := conn.Collect()
	if err == nil {
		*dst = st
	}
	return err
}

// collectRound is CollectAll plus the per-stage probes RunOnce's push
// phase wants; rs (when non-nil) accumulates round accounting.
func (c *Controller) collectRound(rs *RoundStats) ([]JobSnapshot, map[string]stageProbe) {
	conns, reservations, lastAlloc, groupBy, workers := c.roundSetup()

	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	buf, errs := c.roundScratch(len(conns))
	runBounded(len(conns), workers, func(i int) {
		errs[i] = collectConn(conns[i], &buf[i])
	})
	return c.foldCollect(conns, buf, errs, reservations, lastAlloc, groupBy, rs)
}

// foldCollect aggregates a round's per-stage results (positional in
// conns order) into per-job snapshots and per-stage probes, folding in
// StageID order so the output is deterministic whatever the worker
// interleaving was. Failures are reported, marked for eviction, and
// skipped.
func (c *Controller) foldCollect(conns []StageConn, buf []stage.Stats, errs []error,
	reservations, lastAlloc map[string]float64, groupBy func(stage.Info) string,
	rs *RoundStats) ([]JobSnapshot, map[string]stageProbe) {
	probes := make(map[string]stageProbe, len(conns))
	agg := map[string]*JobSnapshot{}
	failed := map[string]int{}
	for i, conn := range conns {
		info := conn.Info()
		key := groupBy(info)
		if err := errs[i]; err != nil {
			c.onError(info.StageID, err)
			c.noteMiss(info.StageID)
			failed[key]++
			if rs != nil {
				rs.CollectCalls++
				rs.CollectFailures++
			}
			continue
		}
		c.noteOK(info.StageID)
		if rs != nil {
			rs.CollectCalls++
		}
		probe := stageProbe{ok: true}
		st := &buf[i]
		snap, ok := agg[key]
		if !ok {
			snap = &JobSnapshot{
				JobID:       key,
				Reservation: reservations[key],
				Allocated:   lastAlloc[key],
			}
			agg[key] = snap
		}
		snap.Stages++
		if st.Degraded {
			snap.Degraded = true
			snap.DegradedStages++
			if st.DegradedSeconds > snap.DegradedSeconds {
				snap.DegradedSeconds = st.DegradedSeconds
			}
		}
		for _, q := range st.Queues {
			if q.RuleID == ControlRuleID {
				probe.hasCtl = true
				probe.ctlLimit = q.Limit
				snap.Demand += q.DemandRate
				snap.Throughput += q.ThroughputRate
				if q.WaitP50 > snap.WaitP50 {
					snap.WaitP50 = q.WaitP50
				}
				if q.WaitP95 > snap.WaitP95 {
					snap.WaitP95 = q.WaitP95
				}
				if q.WaitP99 > snap.WaitP99 {
					snap.WaitP99 = q.WaitP99
				}
			}
		}
		probes[info.StageID] = probe
	}
	out := make([]JobSnapshot, 0, len(agg))
	for key, s := range agg {
		s.FailedStages = failed[key]
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out, probes
}

// RoundStats is one RunOnce iteration's accounting: how many round
// trips the feedback loop cost at the current fleet size, and what the
// delta protocol saved. The monitor and padll-controller's report
// surface it; experiment E8 sweeps it against stage count.
type RoundStats struct {
	// Stages is the number of registered stages when the round began.
	Stages int
	// CollectCalls counts collect round trips issued (one per stage);
	// CollectFailures counts the ones that errored.
	CollectCalls    int
	CollectFailures int
	// PushCalls counts push-phase round trips; PushOps the operations
	// they carried (a reinstall adds an op without a round trip on the
	// batched path).
	PushCalls int
	PushOps   int
	// PushesSkipped counts stages whose collect probe showed the target
	// rate already enforced, so no push RPC was issued at all — the
	// delta protocol's steady-state win.
	PushesSkipped int
	// Duration is the wall (or simulated) time the round took.
	Duration time.Duration
	// BytesRead/BytesWritten are the controller-side wire traffic this
	// round across connections that account it (TCP transports).
	BytesRead    uint64
	BytesWritten uint64
	// Aggregators is the shard count of a tree-mode round (0 in flat
	// mode); TokensBorrowed/Repaid/Forgiven sum the shards' lifetime
	// borrow-pool movement as of this round's collect.
	Aggregators    int
	TokensBorrowed float64
	TokensRepaid   float64
	TokensForgiven float64
}

// RPCs is the round's total round trips.
func (r RoundStats) RPCs() int { return r.CollectCalls + r.PushCalls }

// LastRound reports the most recent RunOnce's accounting; ok is false
// before the first completed round.
func (c *Controller) LastRound() (rs RoundStats, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastRound, c.haveRound
}

// wireSample snapshots the traffic counters of every registered
// connection that exposes them, so a round's byte cost is the
// difference of two samples.
func (c *Controller) wireSample() ([]WireStatser, []rpcio.WireStats) {
	c.mu.Lock()
	var ws []WireStatser
	for _, conn := range c.stages {
		if w, ok := conn.(WireStatser); ok {
			ws = append(ws, w)
		}
	}
	c.mu.Unlock()
	before := make([]rpcio.WireStats, len(ws))
	for i, w := range ws {
		before[i] = w.WireStats()
	}
	return ws, before
}

// pushPlan is one stage's intent for a round's push phase.
type pushPlan struct {
	conn    StageConn
	stageID string
	jobID   string
	rate    float64
}

// buildPushPlans materializes the per-stage push intents for an
// allocation, in sorted job order (stagesOfJobLocked already sorts
// within a job): a crash mid-push then partitions the fleet the same
// way on every same-seed run, which the chaos determinism tests rely
// on.
func (c *Controller) buildPushPlans(alloc map[string]float64) []pushPlan {
	c.mu.Lock()
	plansByJob := make(map[string][]StageConn, len(alloc))
	for jobID := range alloc {
		plansByJob[jobID] = c.stagesOfJobLocked(jobID)
	}
	c.mu.Unlock()
	jobIDs := make([]string, 0, len(plansByJob))
	for jobID := range plansByJob {
		jobIDs = append(jobIDs, jobID)
	}
	sort.Strings(jobIDs)
	var plans []pushPlan
	for _, jobID := range jobIDs {
		conns := plansByJob[jobID]
		if len(conns) == 0 {
			continue
		}
		perStage := alloc[jobID] / float64(len(conns))
		for _, conn := range conns {
			plans = append(plans, pushPlan{conn: conn, stageID: conn.Info().StageID, jobID: jobID, rate: perStage})
		}
	}
	return plans
}

// pushOpFor chooses the batched push operation for one stage given its
// latest probe: skip when the probe already shows the target rate
// enforced, reinstall when the stage answered collect without the
// managed queue (restarted), retune otherwise.
func (c *Controller) pushOpFor(probe stageProbe, jobID string, rate float64) (op rpcio.StageOp, skip bool) {
	if probe.ok && probe.hasCtl && probe.ctlLimit == rate {
		return rpcio.StageOp{}, true
	}
	if probe.ok && !probe.hasCtl {
		return rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: c.managedRuleFor(jobID, rate)}, false
	}
	return rpcio.StageOp{Kind: rpcio.OpSetRate, ID: ControlRuleID, Rate: rate}, false
}

// RunOnce executes one feedback-loop iteration: collect, allocate, and
// push per-stage rates. It returns the per-job allocation for reporting.
// It is a no-op (returning nil) when no algorithm is installed.
//
// Both wire-heavy phases are fleet-scale aware: collects use the
// incremental delta protocol on connections that support it, and pushes
// run under a bounded worker pool (WithPushConcurrency), batch their
// operations per stage, and are skipped outright for stages whose
// collect probe shows the target rate already enforced. Push outcomes
// are folded in sorted job/stage order regardless of the concurrency
// bound, preserving the determinism contract the chaos harness checks.
// Under WithPipelinedRounds the two phases fuse into one round trip per
// stage; see runOncePipelined.
func (c *Controller) RunOnce() map[string]float64 {
	if c.treeEnabled() {
		return c.runOnceTree()
	}
	c.mu.Lock()
	pipelined := c.pipelined
	c.mu.Unlock()
	if pipelined {
		return c.runOncePipelined()
	}

	c.mu.Lock()
	alg := c.algorithm
	if c.limitAdapter != nil {
		c.clusterLimit = c.limitAdapter.AdjustLimit(c.clusterLimit)
	}
	limit := c.clusterLimit
	pushWorkers := c.pushWorkers
	stages := len(c.stages)
	c.mu.Unlock()
	if alg == nil {
		return nil
	}

	start := c.clk.Now()
	rs := RoundStats{Stages: stages}
	wireConns, wireBefore := c.wireSample()

	snaps, probes := c.collectRound(&rs)
	// Sweep before allocating: stages past the eviction threshold leave
	// the registry now, so the per-stage split below divides a job's
	// grant among its live stages only instead of letting a dead one
	// hold its share.
	c.EvictDead()
	jobs := make([]JobState, 0, len(snaps))
	for _, s := range snaps {
		jobs = append(jobs, JobState{
			JobID:       s.JobID,
			Demand:      s.Demand,
			Reservation: s.Reservation,
			Stages:      s.Stages,
		})
	}
	alloc := alg.Allocate(limit, jobs)

	c.mu.Lock()
	c.lastAlloc = alloc
	c.mu.Unlock()
	plans := c.buildPushPlans(alloc)

	type pushOutcome struct {
		err     error
		calls   int
		ops     int
		skipped bool
	}
	outcomes := make([]pushOutcome, len(plans))
	runBounded(len(plans), pushWorkers, func(i int) {
		p := plans[i]
		bc, batched := p.conn.(BatchConn)
		if !batched {
			// Per-call path: exactly the pre-batch protocol, including a
			// push every round (its own liveness signal for conns without
			// probes).
			found, err := p.conn.SetRate(ControlRuleID, p.rate)
			out := pushOutcome{err: err, calls: 1, ops: 1}
			if err == nil && !found {
				// The stage lost its managed queue (e.g. restarted):
				// reinstall it.
				out.err = p.conn.ApplyRule(c.managedRuleFor(p.jobID, p.rate))
				out.calls++
				out.ops++
			}
			outcomes[i] = out
			return
		}
		op, skip := c.pushOpFor(probes[p.stageID], p.jobID, p.rate)
		if skip {
			// The collect half of this round's batch already proved the
			// stage enforces exactly this rate: nothing needs to cross
			// the wire.
			outcomes[i] = pushOutcome{skipped: true}
			return
		}
		res, _, err := bc.ExecBatch([]rpcio.StageOp{op}, false)
		out := pushOutcome{err: err, calls: 1, ops: 1}
		if err == nil && op.Kind == rpcio.OpSetRate && len(res) == 1 && !res[0].Found {
			// Lost a race with a stage restart between collect and push:
			// reinstall.
			reinstall := rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: c.managedRuleFor(p.jobID, p.rate)}
			_, _, err = bc.ExecBatch([]rpcio.StageOp{reinstall}, false)
			out.err = err
			out.calls++
			out.ops++
		}
		outcomes[i] = out
	})

	// Fold outcomes in plan (sorted) order: error reporting and eviction
	// marks are deterministic whatever the worker interleaving was.
	for i, p := range plans {
		o := outcomes[i]
		rs.PushCalls += o.calls
		rs.PushOps += o.ops
		if o.skipped {
			rs.PushesSkipped++
			continue
		}
		if o.err != nil {
			c.onError(p.stageID, o.err)
			c.noteMiss(p.stageID)
		}
	}

	rs.Duration = c.clk.Now().Sub(start)
	for i, w := range wireConns {
		after := w.WireStats()
		rs.BytesRead += after.BytesRead - wireBefore[i].BytesRead
		rs.BytesWritten += after.BytesWritten - wireBefore[i].BytesWritten
	}
	c.mu.Lock()
	c.lastRound = rs
	c.haveRound = true
	c.mu.Unlock()
	return alloc
}

// execBatchCollect runs a fused push+collect exchange, materializing
// the snapshot into caller-owned dst when the connection supports it.
func execBatchCollect(bc BatchConn, ops []rpcio.StageOp, dst *stage.Stats) ([]rpcio.OpResult, error) {
	if bi, ok := bc.(BatchIntoConn); ok {
		return bi.ExecBatchInto(ops, true, dst)
	}
	res, st, err := bc.ExecBatch(ops, true)
	if err == nil {
		*dst = st
	}
	return res, err
}

// runOncePipelined is RunOnce with the push and collect phases fused:
// the allocation computed at the end of the previous round rides this
// round's Stage.Batch exchange alongside the incremental collect, so a
// steady-state round costs one round trip per stage instead of two.
//
// Accounting in fused mode: the fused exchange counts as a collect
// call; PushOps counts the operations it carried; PushCalls counts only
// the extra round trips (reinstall retries, per-call fallbacks);
// PushesSkipped keeps its meaning. A stage whose fused exchange fails
// accrues one eviction mark for the round (the two-phase loop charges
// two: one per phase).
func (c *Controller) runOncePipelined() map[string]float64 {
	c.mu.Lock()
	alg := c.algorithm
	if c.limitAdapter != nil {
		c.clusterLimit = c.limitAdapter.AdjustLimit(c.clusterLimit)
	}
	limit := c.clusterLimit
	stages := len(c.stages)
	prevAlloc := make(map[string]float64, len(c.lastAlloc))
	for k, v := range c.lastAlloc {
		prevAlloc[k] = v
	}
	prevProbes := c.prevProbes
	c.mu.Unlock()
	if alg == nil {
		return nil
	}

	start := c.clk.Now()
	rs := RoundStats{Stages: stages}
	wireConns, wireBefore := c.wireSample()

	// This round enacts the allocation the previous round computed; the
	// first round has none and is collect-only.
	plans := c.buildPushPlans(prevAlloc)
	planBy := make(map[string]pushPlan, len(plans))
	for _, p := range plans {
		planBy[p.stageID] = p
	}

	conns, reservations, lastAlloc, groupBy, workers := c.roundSetup()

	type fusedOutcome struct {
		pushErr error
		calls   int // extra round trips beyond the fused exchange
		ops     int
		skipped bool
	}
	outcomes := make([]fusedOutcome, len(conns))
	c.roundMu.Lock()
	buf, errs := c.roundScratch(len(conns))
	runBounded(len(conns), workers, func(i int) {
		conn := conns[i]
		id := conn.Info().StageID
		p, hasPlan := planBy[id]
		out := &outcomes[i]
		bc, batched := conn.(BatchConn)
		if !batched {
			// Per-call peers can't fuse: push then collect, two round
			// trips in one loop slot.
			if hasPlan {
				found, err := conn.SetRate(ControlRuleID, p.rate)
				out.calls, out.ops = 1, 1
				if err == nil && !found {
					err = conn.ApplyRule(c.managedRuleFor(p.jobID, p.rate))
					out.calls++
					out.ops++
				}
				out.pushErr = err
			}
			errs[i] = collectConn(conn, &buf[i])
			return
		}
		var ops []rpcio.StageOp
		var op rpcio.StageOp
		if hasPlan {
			var skip bool
			op, skip = c.pushOpFor(prevProbes[id], p.jobID, p.rate)
			if skip {
				out.skipped = true
			} else {
				ops = append(ops, op)
				out.ops++
			}
		}
		res, err := execBatchCollect(bc, ops, &buf[i])
		errs[i] = err
		if err == nil && len(ops) == 1 && op.Kind == rpcio.OpSetRate && len(res) == 1 && !res[0].Found {
			// Lost a race with a stage restart since the probe was
			// taken: reinstall in an extra round trip.
			reinstall := rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: c.managedRuleFor(p.jobID, p.rate)}
			_, _, rerr := bc.ExecBatch([]rpcio.StageOp{reinstall}, false)
			out.pushErr = rerr
			out.calls++
			out.ops++
		}
	})
	snaps, probes := c.foldCollect(conns, buf, errs, reservations, lastAlloc, groupBy, &rs)
	c.roundMu.Unlock()

	// Fold fused outcomes in sorted (conns) order, mirroring the
	// two-phase loop's determinism contract.
	for i, conn := range conns {
		o := outcomes[i]
		rs.PushCalls += o.calls
		rs.PushOps += o.ops
		if o.skipped {
			rs.PushesSkipped++
			continue
		}
		if o.pushErr != nil {
			id := conn.Info().StageID
			c.onError(id, o.pushErr)
			c.noteMiss(id)
		}
	}

	c.EvictDead()
	jobs := make([]JobState, 0, len(snaps))
	for _, s := range snaps {
		jobs = append(jobs, JobState{
			JobID:       s.JobID,
			Demand:      s.Demand,
			Reservation: s.Reservation,
			Stages:      s.Stages,
		})
	}
	alloc := alg.Allocate(limit, jobs)

	rs.Duration = c.clk.Now().Sub(start)
	for i, w := range wireConns {
		after := w.WireStats()
		rs.BytesRead += after.BytesRead - wireBefore[i].BytesRead
		rs.BytesWritten += after.BytesWritten - wireBefore[i].BytesWritten
	}
	c.mu.Lock()
	c.lastAlloc = alloc
	c.prevProbes = probes
	c.lastRound = rs
	c.haveRound = true
	c.mu.Unlock()
	return alloc
}

// Run executes the feedback loop every interval until Stop is called.
func (c *Controller) Run(interval time.Duration) {
	c.mu.Lock()
	if c.loopStop != nil {
		c.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.loopStop, c.loopDone = stop, done
	c.mu.Unlock()

	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-c.clk.After(interval):
				c.RunOnce()
			}
		}
	}()
}

// Stop halts the feedback loop started by Run.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.loopStop, c.loopDone
	c.loopStop, c.loopDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ClusterLimit returns the current cluster-wide limit (which a
// LimitAdapter may be moving).
func (c *Controller) ClusterLimit() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clusterLimit
}

// LastAllocation returns the most recent per-job allocation.
func (c *Controller) LastAllocation() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.lastAlloc))
	for k, v := range c.lastAlloc {
		out[k] = v
	}
	return out
}

// ---- network server ----

// Server exposes a Controller on the network: a registrar endpoint
// stages dial at job start, served over the frame protocol on one
// listener; the controller dials back to each stage's control service.
type Server struct {
	ctl      *Controller
	stop     func()
	listener net.Listener
}

// Serve starts the registration listener on addr (e.g. "127.0.0.1:0").
func (c *Controller) Serve(addr string) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: listen %s: %w", addr, err)
	}
	fs := rpcio.NewFrameServer()
	fs.AddRegistrar(
		func(reg rpcio.Registration) error {
			h, err := rpcio.DialStage(reg.Addr)
			if err != nil {
				return err
			}
			return c.Register(NewRemoteConn(reg.Info, h))
		},
		func(stageID string) { c.Deregister(stageID) },
	)
	return &Server{ctl: c, listener: l, stop: rpcio.ServeMux(l, fs)}, nil
}

// Addr returns the registrar's listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the registrar listener.
func (s *Server) Close() { s.stop() }

package control

import (
	"padll/internal/policy"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// StageConn abstracts the control plane's channel to one data-plane
// stage. Remote stages use the frame transport (rpcio); the cluster
// simulator and tests drive in-process stages directly. Either way the
// control plane's logic is identical — the property that lets the same
// control algorithms run against live and simulated clusters.
type StageConn interface {
	// Info returns the stage's registration identity.
	Info() stage.Info
	// ApplyRule installs or updates a rule/queue.
	ApplyRule(r policy.Rule) error
	// RemoveRule deletes a rule, reporting whether it existed.
	RemoveRule(id string) (bool, error)
	// SetRate retunes a queue, reporting whether the rule existed.
	SetRate(id string, rate float64) (bool, error)
	// Collect snapshots the stage's statistics.
	Collect() (stage.Stats, error)
	// SetMode switches Enforce/Passthrough.
	SetMode(m stage.Mode) error
	// Close releases the connection.
	Close() error
}

// LocalConn drives an in-process stage directly.
type LocalConn struct {
	Stg *stage.Stage
}

var _ StageConn = (*LocalConn)(nil)

// Info implements StageConn.
func (c *LocalConn) Info() stage.Info { return c.Stg.Info() }

// ApplyRule implements StageConn.
func (c *LocalConn) ApplyRule(r policy.Rule) error {
	c.Stg.ApplyRule(r)
	return nil
}

// RemoveRule implements StageConn.
func (c *LocalConn) RemoveRule(id string) (bool, error) {
	return c.Stg.RemoveRule(id), nil
}

// SetRate implements StageConn.
func (c *LocalConn) SetRate(id string, rate float64) (bool, error) {
	return c.Stg.SetRate(id, rate), nil
}

// Collect implements StageConn.
func (c *LocalConn) Collect() (stage.Stats, error) {
	return c.Stg.Collect(), nil
}

// SetMode implements StageConn.
func (c *LocalConn) SetMode(m stage.Mode) error {
	c.Stg.SetMode(m)
	return nil
}

// Close implements StageConn.
func (c *LocalConn) Close() error { return nil }

// BatchConn is the optional StageConn extension for peers speaking the
// batched delta protocol: a round's operations (and optionally a
// statistics collect) execute in one round trip. The controller type-
// asserts for it and falls back to one StageConn call per operation, so
// wrappers that hide it (fault injectors, in-process conns) transparently
// select that path.
type BatchConn interface {
	StageConn
	// ExecBatch executes ops (and an incremental collect when collect
	// is set) in one round trip; st is the merged full snapshot.
	ExecBatch(ops []rpcio.StageOp, collect bool) (results []rpcio.OpResult, st stage.Stats, err error)
}

// BatchIntoConn extends BatchConn with caller-owned collect storage,
// the shape the pipelined round loop wants: one fused push+collect
// exchange that materializes into a reusable buffer.
type BatchIntoConn interface {
	BatchConn
	// ExecBatchInto is ExecBatch writing the merged snapshot into dst
	// (fully overwritten, capacity reused); dst may be nil when collect
	// is false.
	ExecBatchInto(ops []rpcio.StageOp, collect bool, dst *stage.Stats) ([]rpcio.OpResult, error)
}

// WireStatser is the optional StageConn extension for transports that
// account their traffic; the controller sums it into RoundStats.
type WireStatser interface {
	WireStats() rpcio.WireStats
}

// CollectIntoConn is the optional StageConn extension for peers that can
// materialize a collect into caller-owned storage. The controller's
// round loop uses it with per-slot reusable buffers, so a steady-state
// thousand-stage collect allocates nothing; conns without it fall back
// to Collect. Like BatchConn, wrappers that embed an implementation and
// override Collect to inject failures hide it only if they don't embed
// a CollectIntoConn — which is why LocalConn deliberately omits it:
// interface promotion would otherwise route the controller around every
// embedding wrapper's Collect override.
type CollectIntoConn interface {
	// CollectInto overwrites dst with the stage's statistics, reusing
	// dst's backing capacity.
	CollectInto(dst *stage.Stats) error
}

// DeltaConn is the optional StageConn extension for peers whose collect
// can report "nothing changed since your last collect" and skip
// re-materializing. The caller must keep dst alive between calls: when
// changed is false, dst is left holding the previous materialization,
// which is exactly the current snapshot. The aggregator uses it with
// its persistent per-member stats slots, so a steady-state shard round
// re-copies no stats and re-folds no rows. Like BatchConn, LocalConn
// deliberately omits it so fault-injecting wrappers aren't bypassed.
type DeltaConn interface {
	CollectChangedInto(dst *stage.Stats) (changed bool, err error)
}

// RemoteConn drives a stage over the RPC transport, using the batched
// delta protocol: Collect rides Stage.Batch and after the first
// exchange only changed queues cross the wire; the single-operation
// methods are one-op batches.
type RemoteConn struct {
	info   stage.Info
	handle *rpcio.StageHandle
}

var (
	_ StageConn       = (*RemoteConn)(nil)
	_ BatchConn       = (*RemoteConn)(nil)
	_ BatchIntoConn   = (*RemoteConn)(nil)
	_ WireStatser     = (*RemoteConn)(nil)
	_ CollectIntoConn = (*RemoteConn)(nil)
	_ DeltaConn       = (*RemoteConn)(nil)
)

// NewRemoteConn wraps a dialed stage handle with its registered identity.
func NewRemoteConn(info stage.Info, handle *rpcio.StageHandle) *RemoteConn {
	return &RemoteConn{info: info, handle: handle}
}

// Info implements StageConn.
func (c *RemoteConn) Info() stage.Info { return c.info }

// ApplyRule implements StageConn.
func (c *RemoteConn) ApplyRule(r policy.Rule) error { return c.handle.ApplyRule(r) }

// RemoveRule implements StageConn.
func (c *RemoteConn) RemoveRule(id string) (bool, error) { return c.handle.RemoveRule(id) }

// SetRate implements StageConn.
func (c *RemoteConn) SetRate(id string, rate float64) (bool, error) {
	return c.handle.SetRate(id, rate)
}

// Collect implements StageConn over the incremental protocol.
func (c *RemoteConn) Collect() (stage.Stats, error) { return c.handle.CollectDelta() }

// CollectInto implements CollectIntoConn over the incremental protocol.
func (c *RemoteConn) CollectInto(dst *stage.Stats) error {
	return c.handle.CollectDeltaInto(dst)
}

// CollectChangedInto implements DeltaConn over the incremental protocol.
func (c *RemoteConn) CollectChangedInto(dst *stage.Stats) (bool, error) {
	_, changed, err := c.handle.ExecBatchChangedInto(nil, true, dst)
	return changed, err
}

// ExecBatch implements BatchConn.
func (c *RemoteConn) ExecBatch(ops []rpcio.StageOp, collect bool) ([]rpcio.OpResult, stage.Stats, error) {
	return c.handle.ExecBatch(ops, collect)
}

// ExecBatchInto implements BatchIntoConn.
func (c *RemoteConn) ExecBatchInto(ops []rpcio.StageOp, collect bool, dst *stage.Stats) ([]rpcio.OpResult, error) {
	return c.handle.ExecBatchInto(ops, collect, dst)
}

// WireStats implements WireStatser.
func (c *RemoteConn) WireStats() rpcio.WireStats { return c.handle.WireStats() }

// SetMode implements StageConn.
func (c *RemoteConn) SetMode(m stage.Mode) error { return c.handle.SetMode(m) }

// Close implements StageConn.
func (c *RemoteConn) Close() error { return c.handle.Close() }

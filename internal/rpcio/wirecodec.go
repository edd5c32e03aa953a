// The hand-rolled binary wire codec.
//
// gob served the control plane through PR 5, but it priced every
// collect in reflection and allocations, and its zero-field elision
// (absent fields left untouched on decode) already caused one silent
// correctness bug — the stale-reply merge resetReply exists to prevent.
// This codec removes both failure classes by construction: every field
// of every wire struct is explicitly encoded and explicitly decoded, in
// declaration order, with no reflection and no optional fields. A
// decoded struct never contains residue from a previous decode.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic   0x4C4C4450 ("PDLL")
//	     4     1  version WireVersion
//	     5     1  kind    frameRequest | frameReply | frameError
//	     6     1  method  methodID
//	     7     1  flags   reserved, zero
//	     8     8  stream  caller-chosen id routing the reply
//	    16     4  channel service selector on a multiplexed listener
//	    20     4  length  payload byte count (bounded by maxFramePayload)
//	    24     …  payload
//
// Payload scalars use binary.{App,}endUvarint/Varint; float64 travels
// as its IEEE-754 bits in 8 fixed bytes; strings and slices carry a
// uvarint count followed by their elements. Element counts are
// validated against the remaining payload before any allocation, so a
// hostile length prefix cannot force an over-read or an outsized
// allocation.
//
// Versioning: WireVersion covers the header layout and every struct
// schema below. Any schema change — a new field, a type change, a
// reordering — must bump WireVersion and register the new schema
// fingerprint in wireSchemaFingerprints (wire_registry_test.go computes
// the fingerprint and fails until both move together). Peers reject
// frames whose version byte differs from their own; there is no
// in-place negotiation — mixed fleets upgrade both sides together.
package rpcio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// wireMagic is the first four bytes of every frame: "PDLL" read as a
// little-endian uint32.
const wireMagic uint32 = 0x4C4C4450

// WireVersion is the binary codec's schema version. Bump it on any
// change to the frame header, to the method table, or to a wire
// struct's field set, together with wireSchemaFingerprints.
const WireVersion = 3

// wireSchemaFingerprints records the sha256 fingerprint of the full
// wire schema (every struct's ordered field list, as locked by
// wire_registry_test.go) at each WireVersion. The registry test
// recomputes the fingerprint and fails if the schema changed without a
// new version entry here.
var wireSchemaFingerprints = map[int]string{
	1: "sha256:201892b0bea5b6b7b65eb6fc63cfe170d216c310bd060ae6459ed5ecb531b237",
	// v2: aggregator tier (Agg.Attach, Agg.Round and their six structs).
	2: "sha256:379b1c97969b14109043ab048a227896457789d1e7ed75395796cfa5cd1c6081",
	// v3: per-call stage methods retired (their four args structs and
	// stage.Stats leave the schema); the registrar moves onto frames.
	3: "sha256:4ba90da4b79e5b7a1a6c951a1db36ec1a588ecc66b476fb50b2cad29ff45fb63",
}

// Frame kinds.
const (
	frameRequest uint8 = 1
	frameReply   uint8 = 2
	// frameError carries a service-side application error as a string
	// payload: the wire worked and the peer answered, so transports do
	// not retry it.
	frameError uint8 = 3
)

// Method numbers a frame method on the wire. Numbers are permanent: a
// retired method's number is never reassigned, so a frame from a stale
// peer can only fail as an unknown method, never decode as another.
type Method uint8

const (
	// methodAttach is the mux handshake: request payload is the raw
	// stage-ID bytes, reply payload is the uvarint channel to address
	// that stage's service on this listener.
	methodAttach Method = 1
	// 2–7 carried the retired per-call stage methods (ApplyRule,
	// RemoveRule, SetRate, Collect, SetMode, Ping); a one-op Batch
	// covers each of them.

	// MethodHealth reports a stage's liveness and degraded accounting.
	MethodHealth Method = 8
	// MethodBatch runs a round's stage operations and an optional
	// incremental collect (batch.go).
	MethodBatch Method = 9
	// MethodAggAttach and MethodAggRound are the aggregator tier
	// (agg.go), dispatched to AggServices on the same mux.
	MethodAggAttach Method = 10
	MethodAggRound  Method = 11
	// MethodRegister, MethodDeregister and MethodRegistrarPing are the
	// control plane's registrar: a stage announcing itself at job start,
	// its departure, and the liveness probe behind degraded mode.
	MethodRegister      Method = 12
	MethodDeregister    Method = 13
	MethodRegistrarPing Method = 14
)

// String names the method for error messages.
func (m Method) String() string {
	switch m {
	case methodAttach:
		return "attach"
	case MethodHealth:
		return "Stage.Health"
	case MethodBatch:
		return "Stage.Batch"
	case MethodAggAttach:
		return "Agg.Attach"
	case MethodAggRound:
		return "Agg.Round"
	case MethodRegister:
		return "Registrar.Register"
	case MethodDeregister:
		return "Registrar.Deregister"
	case MethodRegistrarPing:
		return "Registrar.Ping"
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

const (
	frameHeaderLen = 24
	// maxFramePayload bounds a frame's payload. The largest legitimate
	// payload is a full-snapshot BatchReply for a stage with an extreme
	// rule count; 16 MiB is orders of magnitude above that while keeping
	// a corrupt or hostile length prefix from provoking a giant read.
	maxFramePayload = 16 << 20
)

// frameHeader is the decoded fixed-width header.
type frameHeader struct {
	kind    uint8
	method  Method
	flags   uint8
	stream  uint64
	channel uint32
	length  uint32
}

// putFrameHeader writes h into b[:frameHeaderLen].
func putFrameHeader(b []byte, h frameHeader) {
	binary.LittleEndian.PutUint32(b[0:], wireMagic)
	b[4] = WireVersion
	b[5] = h.kind
	b[6] = uint8(h.method)
	b[7] = h.flags
	binary.LittleEndian.PutUint64(b[8:], h.stream)
	binary.LittleEndian.PutUint32(b[16:], h.channel)
	binary.LittleEndian.PutUint32(b[20:], h.length)
}

// parseFrameHeader validates and decodes a frame header. A non-nil
// error means the connection's framing is unusable (wrong protocol,
// version skew, or an insane length) and the connection must die; it is
// never a per-call error.
func parseFrameHeader(b []byte) (frameHeader, error) {
	if len(b) < frameHeaderLen {
		return frameHeader{}, fmt.Errorf("rpcio: frame header truncated: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != wireMagic {
		return frameHeader{}, fmt.Errorf("rpcio: bad frame magic %#08x", m)
	}
	if v := b[4]; v != WireVersion {
		return frameHeader{}, fmt.Errorf("rpcio: wire version skew: peer speaks v%d, this side v%d", v, WireVersion)
	}
	h := frameHeader{
		kind:    b[5],
		method:  Method(b[6]),
		flags:   b[7],
		stream:  binary.LittleEndian.Uint64(b[8:]),
		channel: binary.LittleEndian.Uint32(b[16:]),
		length:  binary.LittleEndian.Uint32(b[20:]),
	}
	if h.length > maxFramePayload {
		return frameHeader{}, fmt.Errorf("rpcio: frame payload %d exceeds limit %d", h.length, maxFramePayload)
	}
	return h, nil
}

// ---- encode primitives (append-style, reusable caller buffers) ----

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendF64 encodes a float64 as the uvarint of its byte-reversed IEEE
// bits. Reversal moves the sign/exponent byte — and the high mantissa
// bytes that round-ish numbers actually use — into the low varint
// groups, so 0.0 is one byte and typical rates (15000.0, 2.5) are
// three to five instead of a fixed eight. Lossless and explicit: every
// bit pattern (including NaNs) round-trips exactly; nothing is elided.
func appendF64(b []byte, v float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ---- decode primitives ----

// wireReader decodes one payload with a sticky error: the first
// malformed field poisons the reader and every later read returns zero
// values, so decoders need no per-field error plumbing and can never
// act on partially valid data.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("rpcio: decode: "+format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) f64() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.uvarint()))
}

func (r *wireReader) boolv() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("invalid bool byte %#02x at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

func (r *wireReader) str() string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return ""
	}
	if n == 0 {
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// strSame decodes a string like str, but returns prev — skipping the
// allocation — when the wire bytes equal it. Decode targets are reused
// across frames, so identifier fields (job IDs, aggregator IDs) carry
// the same value round after round; comparing against the slot's
// previous value makes the steady state allocation-free.
func (r *wireReader) strSame(prev string) string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return ""
	}
	if n == 0 {
		return ""
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	if string(b) == prev { // compiler-optimized: no conversion allocation
		return prev
	}
	return string(b)
}

// count reads a slice element count and validates it against the
// remaining payload: every element encodes to at least minElem bytes,
// so a count that could not possibly fit is rejected before the caller
// allocates anything.
func (r *wireReader) count(minElem int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minElem < 1 {
		minElem = 1
	}
	if n > uint64((len(r.buf)-r.off)/minElem) {
		r.fail("element count %d cannot fit in remaining %d bytes", n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// done reports the reader's sticky error, additionally failing if the
// payload was not fully consumed — trailing garbage means the two sides
// disagree on the schema.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("rpcio: decode: %d trailing bytes after payload", len(r.buf)-r.off)
	}
	return nil
}

// Minimum encoded sizes, used to bound slice counts before allocation.
const (
	minStrEnc        = 1  // empty string: 1 count byte
	minVarintEnc     = 1  // zero: 1 byte
	minQueueStatsEnc = 12 // 1 string + 7 varint float64 + 4 varints
	minStageOpEnc    = 13 // kind + minimal rule (9) + id + rate + mode
	minOpResultEnc   = 1  // bool
	minJobGrantEnc   = 2  // 1 string count + 1 f64 uvarint byte
	minAggDeltaEnc   = 7  // 1 string count + 6 one-byte scalars
)

// ---- per-struct codecs ----
//
// Encoders append to the caller's buffer and return it; decoders
// overwrite every field of the destination, reusing slice capacity.
// Field order is declaration order, locked by wire_registry_test.go.

func appendInfo(b []byte, v *stage.Info) []byte {
	b = appendString(b, v.StageID)
	b = appendString(b, v.JobID)
	b = appendString(b, v.Hostname)
	b = binary.AppendVarint(b, int64(v.PID))
	b = appendString(b, v.User)
	return b
}

func readInfo(r *wireReader, v *stage.Info) {
	v.StageID = r.str()
	v.JobID = r.str()
	v.Hostname = r.str()
	v.PID = int(r.varint())
	v.User = r.str()
}

func appendQueueStats(b []byte, v *stage.QueueStats) []byte {
	b = appendString(b, v.RuleID)
	b = appendF64(b, v.Limit)
	b = appendF64(b, v.Burst)
	b = appendF64(b, v.ThroughputRate)
	b = appendF64(b, v.DemandRate)
	b = binary.AppendVarint(b, v.Total)
	b = binary.AppendVarint(b, v.TotalDemand)
	b = binary.AppendVarint(b, v.Dropped)
	b = binary.AppendVarint(b, int64(v.Waiting))
	b = appendF64(b, v.WaitP50)
	b = appendF64(b, v.WaitP95)
	b = appendF64(b, v.WaitP99)
	return b
}

func readQueueStats(r *wireReader, v *stage.QueueStats) {
	v.RuleID = r.str()
	v.Limit = r.f64()
	v.Burst = r.f64()
	v.ThroughputRate = r.f64()
	v.DemandRate = r.f64()
	v.Total = r.varint()
	v.TotalDemand = r.varint()
	v.Dropped = r.varint()
	v.Waiting = int(r.varint())
	v.WaitP50 = r.f64()
	v.WaitP95 = r.f64()
	v.WaitP99 = r.f64()
}

func appendQueueStatsSlice(b []byte, qs []stage.QueueStats) []byte {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for i := range qs {
		b = appendQueueStats(b, &qs[i])
	}
	return b
}

func readQueueStatsSlice(r *wireReader, dst []stage.QueueStats) []stage.QueueStats {
	n := r.count(minQueueStatsEnc)
	dst = dst[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var q stage.QueueStats
		readQueueStats(r, &q)
		dst = append(dst, q)
	}
	return dst
}

func appendMatcher(b []byte, v *policy.Matcher) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Ops)))
	for _, op := range v.Ops {
		b = binary.AppendVarint(b, int64(op))
	}
	b = binary.AppendUvarint(b, uint64(len(v.Classes)))
	for _, cl := range v.Classes {
		b = binary.AppendVarint(b, int64(cl))
	}
	b = appendString(b, v.PathPrefix)
	b = appendString(b, v.JobID)
	b = appendString(b, v.User)
	return b
}

func readMatcher(r *wireReader, v *policy.Matcher) {
	// Like gob, the codec only moves exported fields; the receiver's
	// matcher recomputes its unexported prefix cache on first use.
	nOps := r.count(minVarintEnc)
	v.Ops = v.Ops[:0]
	for i := 0; i < nOps && r.err == nil; i++ {
		v.Ops = append(v.Ops, posix.Op(r.varint()))
	}
	nCls := r.count(minVarintEnc)
	v.Classes = v.Classes[:0]
	for i := 0; i < nCls && r.err == nil; i++ {
		v.Classes = append(v.Classes, posix.Class(r.varint()))
	}
	v.PathPrefix = r.str()
	v.JobID = r.str()
	v.User = r.str()
}

func appendRule(b []byte, v *policy.Rule) []byte {
	b = appendString(b, v.ID)
	b = appendMatcher(b, &v.Match)
	b = appendF64(b, v.Rate)
	b = appendF64(b, v.Burst)
	b = binary.AppendVarint(b, int64(v.Action))
	return b
}

func readRule(r *wireReader, v *policy.Rule) {
	v.ID = r.str()
	readMatcher(r, &v.Match)
	v.Rate = r.f64()
	v.Burst = r.f64()
	v.Action = policy.Action(r.varint())
}

func appendRegistration(b []byte, v *Registration) []byte {
	b = appendInfo(b, &v.Info)
	b = appendString(b, v.Addr)
	return b
}

func readRegistration(r *wireReader, v *Registration) {
	readInfo(r, &v.Info)
	v.Addr = r.str()
}

func appendHealthProbe(b []byte, v *HealthProbe) []byte {
	return binary.AppendUvarint(b, v.Seq)
}

func readHealthProbe(r *wireReader, v *HealthProbe) {
	v.Seq = r.uvarint()
}

func appendStageHealth(b []byte, v *StageHealth) []byte {
	b = binary.AppendUvarint(b, v.Seq)
	b = appendInfo(b, &v.Info)
	b = appendBool(b, v.Degraded)
	b = appendF64(b, v.DegradedSeconds)
	b = binary.AppendVarint(b, int64(v.Rules))
	return b
}

func readStageHealth(r *wireReader, v *StageHealth) {
	v.Seq = r.uvarint()
	readInfo(r, &v.Info)
	v.Degraded = r.boolv()
	v.DegradedSeconds = r.f64()
	v.Rules = int(r.varint())
}

func appendStageOp(b []byte, v *StageOp) []byte {
	b = binary.AppendUvarint(b, uint64(v.Kind))
	b = appendRule(b, &v.Rule)
	b = appendString(b, v.ID)
	b = appendF64(b, v.Rate)
	b = binary.AppendVarint(b, int64(v.Mode))
	return b
}

func readStageOp(r *wireReader, v *StageOp) {
	v.Kind = OpKind(r.uvarint())
	readRule(r, &v.Rule)
	v.ID = r.str()
	v.Rate = r.f64()
	v.Mode = stage.Mode(r.varint())
}

func appendOpResult(b []byte, v *OpResult) []byte {
	return appendBool(b, v.Found)
}

func readOpResult(r *wireReader, v *OpResult) {
	v.Found = r.boolv()
}

func appendBatchArgs(b []byte, v *BatchArgs) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Ops)))
	for i := range v.Ops {
		b = appendStageOp(b, &v.Ops[i])
	}
	b = appendBool(b, v.Collect)
	b = binary.AppendUvarint(b, v.ClientID)
	b = binary.AppendUvarint(b, v.AckEpoch)
	b = binary.AppendUvarint(b, v.AckGen)
	return b
}

func readBatchArgs(r *wireReader, v *BatchArgs) {
	n := r.count(minStageOpEnc)
	v.Ops = v.Ops[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var op StageOp
		readStageOp(r, &op)
		v.Ops = append(v.Ops, op)
	}
	v.Collect = r.boolv()
	v.ClientID = r.uvarint()
	v.AckEpoch = r.uvarint()
	v.AckGen = r.uvarint()
}

func appendStatsDelta(b []byte, v *StatsDelta) []byte {
	b = binary.AppendUvarint(b, v.Epoch)
	b = binary.AppendUvarint(b, v.Gen)
	b = appendBool(b, v.Full)
	b = appendInfo(b, &v.Info)
	b = appendQueueStatsSlice(b, v.Queues)
	b = binary.AppendUvarint(b, uint64(len(v.Removed)))
	for _, id := range v.Removed {
		b = appendString(b, id)
	}
	b = binary.AppendVarint(b, v.Passthrough)
	b = appendBool(b, v.Degraded)
	b = appendF64(b, v.DegradedSeconds)
	return b
}

func readStatsDelta(r *wireReader, v *StatsDelta) {
	v.Epoch = r.uvarint()
	v.Gen = r.uvarint()
	v.Full = r.boolv()
	readInfo(r, &v.Info)
	v.Queues = readQueueStatsSlice(r, v.Queues)
	n := r.count(minStrEnc)
	v.Removed = v.Removed[:0]
	for i := 0; i < n && r.err == nil; i++ {
		v.Removed = append(v.Removed, r.str())
	}
	v.Passthrough = r.varint()
	v.Degraded = r.boolv()
	v.DegradedSeconds = r.f64()
}

func appendBatchReply(b []byte, v *BatchReply) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Results)))
	for i := range v.Results {
		b = appendOpResult(b, &v.Results[i])
	}
	b = appendStatsDelta(b, &v.Delta)
	return b
}

func readBatchReply(r *wireReader, v *BatchReply) {
	n := r.count(minOpResultEnc)
	v.Results = v.Results[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var res OpResult
		readOpResult(r, &res)
		v.Results = append(v.Results, res)
	}
	readStatsDelta(r, &v.Delta)
}

func appendAggAttachArgs(b []byte, v *AggAttachArgs) []byte {
	return binary.AppendUvarint(b, v.Seq)
}

func readAggAttachArgs(r *wireReader, v *AggAttachArgs) {
	v.Seq = r.uvarint()
}

func appendAggInfo(b []byte, v *AggInfo) []byte {
	b = binary.AppendUvarint(b, v.Seq)
	b = appendString(b, v.AggID)
	b = binary.AppendVarint(b, int64(v.Stages))
	b = binary.AppendUvarint(b, uint64(len(v.Jobs)))
	for _, j := range v.Jobs {
		b = appendString(b, j)
	}
	return b
}

func readAggInfo(r *wireReader, v *AggInfo) {
	v.Seq = r.uvarint()
	v.AggID = r.strSame(v.AggID)
	v.Stages = int(r.varint())
	n := r.count(minStrEnc)
	jobs := v.Jobs[:0]
	for i := 0; i < n && r.err == nil; i++ {
		if i < cap(jobs) {
			jobs = jobs[:i+1]
			jobs[i] = r.strSame(jobs[i])
		} else {
			jobs = append(jobs, r.str())
		}
	}
	v.Jobs = jobs
}

func appendJobGrant(b []byte, v *JobGrant) []byte {
	b = appendString(b, v.JobID)
	b = appendF64(b, v.Rate)
	return b
}

func readJobGrant(r *wireReader, v *JobGrant) {
	v.JobID = r.strSame(v.JobID)
	v.Rate = r.f64()
}

func appendAggRoundArgs(b []byte, v *AggRoundArgs) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Grants)))
	for i := range v.Grants {
		b = appendJobGrant(b, &v.Grants[i])
	}
	b = appendBool(b, v.Collect)
	return b
}

func readAggRoundArgs(r *wireReader, v *AggRoundArgs) {
	n := r.count(minJobGrantEnc)
	// Decode in place: a slot kept within capacity still holds last
	// frame's element, letting strSame reuse its JobID.
	grants := v.Grants[:0]
	for i := 0; i < n && r.err == nil; i++ {
		if i < cap(grants) {
			grants = grants[:i+1]
		} else {
			grants = append(grants, JobGrant{})
		}
		readJobGrant(r, &grants[i])
	}
	v.Grants = grants
	v.Collect = r.boolv()
}

func appendAggJobDelta(b []byte, v *AggJobDelta) []byte {
	b = appendString(b, v.JobID)
	b = binary.AppendVarint(b, int64(v.Stages))
	b = appendF64(b, v.Demand)
	b = appendF64(b, v.Throughput)
	b = appendF64(b, v.WaitP99)
	b = binary.AppendVarint(b, v.Dropped)
	b = binary.AppendVarint(b, int64(v.FailedStages))
	return b
}

func readAggJobDelta(r *wireReader, v *AggJobDelta) {
	v.JobID = r.strSame(v.JobID)
	v.Stages = int(r.varint())
	v.Demand = r.f64()
	v.Throughput = r.f64()
	v.WaitP99 = r.f64()
	v.Dropped = r.varint()
	v.FailedStages = int(r.varint())
}

func appendAggRoundReply(b []byte, v *AggRoundReply) []byte {
	b = appendString(b, v.AggID)
	b = binary.AppendVarint(b, int64(v.Stages))
	b = binary.AppendUvarint(b, uint64(len(v.Jobs)))
	for i := range v.Jobs {
		b = appendAggJobDelta(b, &v.Jobs[i])
	}
	b = appendF64(b, v.Borrowed)
	b = appendF64(b, v.Repaid)
	b = appendF64(b, v.Forgiven)
	return b
}

func readAggRoundReply(r *wireReader, v *AggRoundReply) {
	v.AggID = r.strSame(v.AggID)
	v.Stages = int(r.varint())
	n := r.count(minAggDeltaEnc)
	// Decode in place: a slot kept within capacity still holds last
	// frame's row, letting strSame reuse its JobID.
	jobs := v.Jobs[:0]
	for i := 0; i < n && r.err == nil; i++ {
		if i < cap(jobs) {
			jobs = jobs[:i+1]
		} else {
			jobs = append(jobs, AggJobDelta{})
		}
		readAggJobDelta(r, &jobs[i])
	}
	v.Jobs = jobs
	v.Borrowed = r.f64()
	v.Repaid = r.f64()
	v.Forgiven = r.f64()
}

// ---- method dispatch ----

// appendCallArgs encodes one method's args. The any values are the same
// pointer forms Transport.Call receives.
func appendCallArgs(b []byte, m Method, args any) ([]byte, error) {
	switch m {
	case MethodHealth, MethodRegistrarPing:
		return appendHealthProbe(b, args.(*HealthProbe)), nil
	case MethodBatch:
		return appendBatchArgs(b, args.(*BatchArgs)), nil
	case MethodAggAttach:
		return appendAggAttachArgs(b, args.(*AggAttachArgs)), nil
	case MethodAggRound:
		return appendAggRoundArgs(b, args.(*AggRoundArgs)), nil
	case MethodRegister:
		return appendRegistration(b, args.(*Registration)), nil
	case MethodDeregister:
		// The payload is the raw stage ID, as attach's is.
		return append(b, *args.(*string)...), nil
	default:
		return b, fmt.Errorf("rpcio: encode: unknown %v", m)
	}
}

// readCallArgs decodes one method's args payload into the pointed-to
// struct, fully overwriting it (slice capacity is reused).
func readCallArgs(m Method, payload []byte, args any) error {
	r := wireReader{buf: payload}
	switch m {
	case MethodHealth, MethodRegistrarPing:
		readHealthProbe(&r, args.(*HealthProbe))
	case MethodBatch:
		readBatchArgs(&r, args.(*BatchArgs))
	case MethodAggAttach:
		readAggAttachArgs(&r, args.(*AggAttachArgs))
	case MethodAggRound:
		readAggRoundArgs(&r, args.(*AggRoundArgs))
	case MethodRegister:
		readRegistration(&r, args.(*Registration))
	case MethodDeregister:
		*args.(*string) = string(payload)
		return nil
	default:
		return fmt.Errorf("rpcio: decode: unknown %v", m)
	}
	return r.done()
}

// appendCallReply encodes one method's reply.
func appendCallReply(b []byte, m Method, reply any) ([]byte, error) {
	switch m {
	case MethodHealth:
		return appendStageHealth(b, reply.(*StageHealth)), nil
	case MethodBatch:
		return appendBatchReply(b, reply.(*BatchReply)), nil
	case MethodAggAttach:
		return appendAggInfo(b, reply.(*AggInfo)), nil
	case MethodAggRound:
		return appendAggRoundReply(b, reply.(*AggRoundReply)), nil
	case MethodRegister, MethodDeregister:
		return b, nil // empty reply
	case MethodRegistrarPing:
		return appendHealthProbe(b, reply.(*HealthProbe)), nil
	default:
		return b, fmt.Errorf("rpcio: encode: unknown %v", m)
	}
}

// readCallReply decodes one method's reply payload into the pointed-to
// value, fully overwriting it.
func readCallReply(m Method, payload []byte, reply any) error {
	r := wireReader{buf: payload}
	switch m {
	case MethodHealth:
		readStageHealth(&r, reply.(*StageHealth))
	case MethodBatch:
		readBatchReply(&r, reply.(*BatchReply))
	case MethodAggAttach:
		readAggInfo(&r, reply.(*AggInfo))
	case MethodAggRound:
		readAggRoundReply(&r, reply.(*AggRoundReply))
	case MethodRegister, MethodDeregister:
		// empty reply
	case MethodRegistrarPing:
		readHealthProbe(&r, reply.(*HealthProbe))
	default:
		return fmt.Errorf("rpcio: decode: unknown %v", m)
	}
	return r.done()
}

// codecFieldCoverage maps every wire struct to the number of fields its
// binary codec encodes and decodes. wire_registry_test.go checks each
// entry against the registry's locked field list, so adding a field to
// a wire struct without extending its codec (and bumping WireVersion)
// fails the build's tests rather than silently truncating frames.
var codecFieldCoverage = map[string]int{
	"rpcio.Registration":  2,
	"rpcio.HealthProbe":   1,
	"rpcio.StageHealth":   5,
	"rpcio.StageOp":       5,
	"rpcio.OpResult":      1,
	"rpcio.BatchArgs":     5,
	"rpcio.BatchReply":    2,
	"rpcio.StatsDelta":    9,
	"rpcio.AggAttachArgs": 1,
	"rpcio.AggInfo":       4,
	"rpcio.JobGrant":      2,
	"rpcio.AggRoundArgs":  2,
	"rpcio.AggJobDelta":   7,
	"rpcio.AggRoundReply": 6,
	"stage.Info":          5,
	"stage.QueueStats":    12,
	"policy.Rule":         5,
	"policy.Matcher":      5,
}

// RemoteError is a service-side application error carried back over a
// frame connection: the wire worked, the stage answered, and the answer
// was "no". Transports return it to the caller and never retry it.
type RemoteError string

// Error implements error.
func (e RemoteError) Error() string { return string(e) }

// Package wirefix seeds wirecheck violations: wire structs must carry
// only exported, concretely typed fields. The binary frame codec (like
// gob before it) drops unexported fields silently and cannot encode
// interface values, channels or funcs at all.
package wirefix

// Method mimics rpcio's typed wire method IDs.
type Method uint8

const (
	methodExec  Method = 1
	methodBatch Method = 2
)

// transport mimics rpcio's Call shape: (m Method, args, reply).
type transport struct{}

func (t *transport) Call(m Method, args any, reply any) error {
	return nil
}

// BatchReply mirrors the batched protocol's reply struct; the private
// cursor would vanish on the wire.
//
//lint:wire
type BatchReply struct {
	Found   bool
	Results []int
	cursor  int // want `unexported field cursor`
}

//lint:wire
type BatchArgs struct {
	Ops []int
}

// CallArgs/CallReply carry no annotation: wirecheck discovers them as
// concrete operands of the Call site below.
type CallArgs struct {
	Payload any // want `interface-typed`
}

type CallReply struct {
	seq   int // want `unexported field seq`
	Items []itemRow
}

// itemRow is reached transitively through CallReply.Items.
type itemRow struct {
	key string // want `unexported field key`
	Val int
}

func exec(t *transport) error {
	var a CallArgs
	var r CallReply
	return t.Call(methodExec, &a, &r)
}

// execBatch keeps the annotated pair live at a call site too.
func (h *handle) execBatch() error {
	h.bargs.Ops = append(h.bargs.Ops[:0], 1)
	return h.t.Call(methodBatch, &h.bargs, &h.breply)
}

type handle struct {
	t      *transport
	bargs  BatchArgs
	breply BatchReply
}

// badWire carries every field shape the codec mangles or rejects.
//
//lint:wire
type badWire struct {
	secret int            // want `unexported field secret`
	Attrs  map[string]any // want `map with interface values`
	Any    any            // want `interface-typed`
	C      chan int       // want `channel`
	F      func()         // want `func`
	Nested nestedWire
}

// nestedWire is reached transitively through badWire.Nested.
type nestedWire struct {
	hidden int // want `unexported field hidden`
	OK     string
}

package zk

import (
	"errors"
	"strconv"
	"strings"
)

// TxnResult is the deterministic outcome of applying a transaction to a
// tree. Every replica applying the same committed sequence computes the
// same results; the client receives the leader's copy.
type TxnResult struct {
	// CreatedPath is the actual path of a created znode (sequential names
	// resolved).
	CreatedPath string
	// Head is the element a DequeueMinTxn removed, by value: every server
	// applies the transaction, and only the result that reaches the client
	// becomes a view's element (outcome). Its Name is "" if the queue was
	// empty.
	Head QueueElement
	// Remaining is the number of elements left in the queue after a
	// DequeueMinTxn.
	Remaining int
	// Err is the operation error (ErrNoNode, ErrNodeExists, ...); a failed
	// transaction is still a deterministic no-op everywhere.
	Err error
}

// QueueElement is one element of a replicated queue.
type QueueElement struct {
	// Name is the znode name ("q-0000000042").
	Name string
	// Seq is the sequence number parsed from the name: the paper's "ticket
	// number", the element's position in enqueue order.
	Seq uint64
	// Data is the element payload: the znode's own buffer, shared with the
	// servers' trees and every other view of the element, and immutable —
	// retain freely, never modify.
	Data []byte
}

// EqualValue implements core.Equaler[*QueueElement]: divergence checks go
// by identity (name), ignoring payload copies.
func (e *QueueElement) EqualValue(o *QueueElement) bool {
	if e == nil || o == nil {
		return e == o
	}
	return e.Name == o.Name
}

// seqOf parses the trailing sequence number of a sequential znode name.
func seqOf(name string) uint64 {
	if len(name) < 10 {
		return 0
	}
	n, err := strconv.ParseUint(name[len(name)-10:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Txn is a deterministic state transition on the znode tree.
type Txn interface {
	// Apply mutates the tree and returns the outcome.
	Apply(t *Tree) TxnResult
	// PayloadSize is the wire footprint of the transaction body.
	PayloadSize() int
}

// CreateTxn creates a znode (optionally sequential). Data must not change
// once the transaction exists: every server that applies it stores the same
// buffer (see Tree.Create).
type CreateTxn struct {
	Path       string
	Data       []byte
	Sequential bool
}

// Apply implements Txn.
func (x CreateTxn) Apply(t *Tree) TxnResult {
	created, err := t.Create(x.Path, x.Data, x.Sequential)
	return TxnResult{CreatedPath: created, Err: err}
}

// PayloadSize implements Txn.
func (x CreateTxn) PayloadSize() int { return len(x.Path) + len(x.Data) }

// DeleteTxn removes a znode.
type DeleteTxn struct {
	Path string
}

// Apply implements Txn.
func (x DeleteTxn) Apply(t *Tree) TxnResult {
	return TxnResult{Err: t.Delete(x.Path)}
}

// PayloadSize implements Txn: the path plus the request's four-byte version
// field, which a delete always sends as "any version".
func (x DeleteTxn) PayloadSize() int { return len(x.Path) + 4 }

// DequeueMinTxn atomically removes the head (smallest sequential child) of
// a queue directory and returns it. This is the CZK server-side dequeue:
// because the pick happens inside the totally ordered transaction, clients
// never race each other and never retry (§6.2.2).
type DequeueMinTxn struct {
	Dir string
}

// Apply implements Txn: it removes the head the contact's simulation reads,
// in place (Tree.RemoveHead).
func (x DequeueMinTxn) Apply(t *Tree) TxnResult {
	name, data, count, err := t.RemoveHead(x.Dir)
	if err != nil || name == "" {
		return TxnResult{Err: err}
	}
	return TxnResult{Head: QueueElement{Name: name, Seq: seqOf(name), Data: data}, Remaining: count - 1}
}

// PayloadSize implements Txn.
func (x DequeueMinTxn) PayloadSize() int { return len(x.Dir) }

// failsFast reports whether a failed prep-time validation should abort the
// transaction without committing (ZooKeeper returns NoNode/NodeExists
// errors from the leader's prep processor without broadcasting).
func failsFast(res TxnResult) bool {
	return res.Err != nil && (errors.Is(res.Err, ErrNoNode) ||
		errors.Is(res.Err, ErrNodeExists) ||
		errors.Is(res.Err, ErrNotEmpty))
}

// queueDir returns the canonical directory for a named queue.
func queueDir(queue string) string {
	return "/queues/" + strings.Trim(queue, "/")
}

// queueItemPrefix returns the sequential-create path prefix for a queue.
func queueItemPrefix(queue string) string {
	return queueDir(queue) + "/q-"
}

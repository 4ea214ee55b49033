// Package zk implements a ZooKeeper-like replicated coordination service:
// a znode tree replicated over a leader-based atomic broadcast (Zab-style
// propose/ack/commit), the standard distributed-queue recipe on top of
// sequential znodes, and the paper's "Correctable ZooKeeper" (CZK)
// modifications (§5.2): a fast path in which a replica first simulates an
// operation on its local state and returns the preliminary (weak) result,
// then applies the operation after coordination and returns the strong
// response; and a dequeue that reads a constant-sized queue tail instead of
// the whole child list (§6.2.2, Fig 10).
package zk

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"correctables/internal/keys"
)

// Tree errors, mirroring ZooKeeper's error codes.
var (
	ErrNoNode     = errors.New("zk: node does not exist")
	ErrNodeExists = errors.New("zk: node already exists")
	ErrNotEmpty   = errors.New("zk: node has children")
)

// node is one znode.
type node struct {
	// data is immutable and shared: with the transaction that created the
	// znode (and so with the other servers' trees), with snapshots and with
	// every view read from it. A znode's data is never written in place.
	data []byte
	// children holds the child names in ascending order, so the queue head
	// (FirstChild) is children[0] and a leaf znode carries no container.
	children []string
	// nextSeq numbers sequential children created under this node.
	nextSeq uint64
}

// Tree is a concurrency-safe znode tree. All mutation goes through
// deterministic transactions so that replicas applying the same committed
// sequence reach identical states.
//
// Znodes are stored by value: a create allocates no node, and a step that
// changes a directory (its child list, its sequence counter) reads the
// node, changes the copy and writes it back.
type Tree struct {
	mu    sync.RWMutex
	nodes map[string]node
}

// NewTree returns a tree containing only the root node "/".
func NewTree() *Tree {
	return &Tree{nodes: map[string]node{"/": {}}}
}

func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

func baseOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	return path[i+1:]
}

func validPath(path string) error {
	if path == "" || path[0] != '/' {
		return fmt.Errorf("zk: invalid path %q", path)
	}
	if path != "/" && strings.HasSuffix(path, "/") {
		return fmt.Errorf("zk: invalid path %q (trailing slash)", path)
	}
	return nil
}

// Create adds a znode. If sequential, the final name is path plus a
// zero-padded 10-digit monotonically increasing counter scoped to the
// parent, and the created path is returned. The znode keeps data itself,
// not a copy: the caller hands over an immutable buffer (the queue client
// and Bootstrap copy a caller's bytes once, on their way in), which is what
// lets the three servers applying one transaction share it.
func (t *Tree) Create(path string, data []byte, sequential bool) (string, error) {
	if err := validPath(path); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := parentOf(path)
	parent, ok := t.nodes[dir]
	if !ok {
		return "", fmt.Errorf("%w: parent of %s", ErrNoNode, path)
	}
	actual := path
	if sequential {
		actual = keys.Padded(path, int64(parent.nextSeq), 10)
		parent.nextSeq++
	}
	if _, exists := t.nodes[actual]; exists {
		// A sequential create spends its number even when the name is taken.
		t.nodes[dir] = parent
		return "", fmt.Errorf("%w: %s", ErrNodeExists, actual)
	}
	t.nodes[actual] = node{data: data}
	// Sequential names arrive in ascending order, so the common insert is an
	// append; anything else finds its place by binary search.
	name := baseOf(actual)
	if n := len(parent.children); n == 0 || parent.children[n-1] < name {
		parent.children = append(parent.children, name)
	} else {
		i, _ := slices.BinarySearch(parent.children, name)
		parent.children = slices.Insert(parent.children, i, name)
	}
	t.nodes[dir] = parent
	return actual, nil
}

// NextSeq returns the sequence number the next sequential child of dir
// would receive (used by the CZK local simulation of enqueue).
func (t *Tree) NextSeq(dir string) (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[dir]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoNode, dir)
	}
	return n.nextSeq, nil
}

// Get returns the data of a znode: the znode's own buffer, shared and
// immutable — retain freely, never modify.
func (t *Tree) Get(path string) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	return n.data, nil
}

// Delete removes a childless znode.
func (t *Tree) Delete(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	delete(t.nodes, path)
	dir := parentOf(path)
	parent := t.nodes[dir]
	i, ok := slices.BinarySearch(parent.children, baseOf(path))
	if !ok {
		return nil // the root, which no directory lists
	}
	if i == 0 {
		parent.dropHead()
	} else {
		parent.children = slices.Delete(parent.children, i, i+1)
	}
	t.nodes[dir] = parent
	return nil
}

// dropHead removes n's first child name without moving the rest (append
// reclaims the dead prefix when it next grows): the queue head, the common
// delete.
func (n *node) dropHead() {
	n.children[0] = ""
	n.children = n.children[1:]
}

// RemoveHead removes the first child of dir, the queue head, and returns its
// name and data and dir's child count before the removal, as FirstChild
// reads them: FirstChild and Delete of the head under one lock, without a
// path on the heap. A dir with no children removes nothing and returns ""
// and a nil error; a head with children of its own is not removed
// (ErrNotEmpty).
func (t *Tree) RemoveHead(dir string) (name string, data []byte, count int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.nodes[dir]
	if !ok {
		return "", nil, 0, fmt.Errorf("%w: %s", ErrNoNode, dir)
	}
	if len(parent.children) == 0 {
		return "", nil, 0, nil
	}
	name = parent.children[0]
	path := dir + "/" + name // only indexes the map: a short one stays on the stack
	head := t.nodes[path]
	if len(head.children) > 0 {
		return "", nil, 0, fmt.Errorf("%w: %s/%s", ErrNotEmpty, dir, name)
	}
	delete(t.nodes, path)
	count = len(parent.children)
	parent.dropHead()
	t.nodes[dir] = parent
	return name, head.data, count, nil
}

// Children returns the sorted child names of a znode.
func (t *Tree) Children(path string) ([]string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	return slices.Clone(n.children), nil
}

// FirstChild returns the lexicographically smallest child of path together
// with its data and the child count — the constant-size "queue tail" read
// CZK uses instead of a full Children listing, and constant-time too: the
// children are kept in order. The data is shared and immutable, like Get's.
func (t *Tree) FirstChild(path string) (name string, data []byte, count int, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[path]
	if !ok {
		return "", nil, 0, fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	if len(n.children) == 0 {
		return "", nil, 0, nil
	}
	name = n.children[0]
	child := t.nodes[path+"/"+name]
	return name, child.data, len(n.children), nil
}

// Snapshot returns a copy of the tree's node state plus its approximate
// encoded size in bytes, for state-transfer accounting. The copy owns its
// child lists — a create or delete on either tree must not show in the
// other — and shares the znode data, which is immutable. Each recipient
// needs its own snapshot: Restore installs the map without copying.
func (t *Tree) Snapshot() (map[string]node, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	nodes := make(map[string]node, len(t.nodes))
	size := 0
	for path, n := range t.nodes {
		n.children = slices.Clone(n.children)
		nodes[path] = n
		size += len(path) + len(n.data) + 16
	}
	return nodes, size
}

// Restore replaces the tree's node state with a snapshot taken from
// another tree.
func (t *Tree) Restore(nodes map[string]node) {
	t.mu.Lock()
	t.nodes = nodes
	t.mu.Unlock()
}

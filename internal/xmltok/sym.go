package xmltok

import "sync/atomic"

// This file implements the scanner's symbol table: every element and
// attribute name (and processing-instruction target) seen on a stream is
// interned to a dense integer Sym at tokenization time. The layers above
// the tokenizer key their per-event decisions on these integers — the
// validating reader binds Sym → *dtd.Element once per distinct name and
// stream, the DTD content-model automata and the projection automaton
// dispatch through Sym/name-id indexed tables, and the runtime's handler
// dispatch is a slice index — so the per-event hot path never hashes or
// compares a name string after a name's first occurrence.

// Sym is a dense per-scanner symbol: the index of an interned name in the
// scanner's symbol table, assigned in order of first occurrence starting
// at 0. Symbols are only meaningful relative to the scanner that produced
// them and are stable for the lifetime of one stream; a Reset may renumber
// (consumers re-derive their Sym-indexed bindings per stream).
type Sym int32

// NoSym marks an event that carries no name (Text, Comment, Directive).
const NoSym Sym = -1

// symTabInitSlots is the initial hash-table size; it must be a power of
// two. The table grows by doubling when occupancy passes 3/4.
const symTabInitSlots = 128

// maxRetainedSyms bounds the vocabulary a pooled scanner carries across
// Reset: a scanner that has accumulated more distinct names than this
// (many unrelated document vocabularies through one pool slot) starts
// over, so the table cannot grow without bound in a long-lived server.
const maxRetainedSyms = 4096

// SymTab interns byte-slice names to dense Sym integers. The zero value
// is ready to use. Interning a name that is already present performs one
// hash probe and no allocation; the first occurrence of a name copies it
// into an owned string.
//
// Concurrency: there is exactly one writer (the scanner goroutine calling
// Intern/Reset). Name and Len may be called from other goroutines
// concurrently with Intern, provided the caller obtained the symbol
// through a happens-before edge from the intern that issued it — the
// batch-ring handoff of a staged pass, or the batch rendezvous of an
// inline pass, both establish that edge. Intern publishes the
// name vector through an atomic pointer on every new name, so readers
// never observe a torn slice header. Reset still requires quiescence: it
// renumbers symbols, so no reader may hold symbols across it (streams
// never share symbols across a Reset anyway).
type SymTab struct {
	// names maps Sym → owned name; its length is the symbol count. It is
	// the writer's working copy; cross-goroutine readers go through pub.
	names []string
	// pub is the atomically published snapshot of names, stored on every
	// append (one pointer store per distinct name per stream, nothing on
	// the hot repeat-name path).
	pub atomic.Pointer[[]string]
	// slots is the open-addressing hash table; entries are Sym indices or
	// -1 for empty. len(slots) is a power of two.
	slots []int32
}

// Len returns the number of interned names.
func (t *SymTab) Len() int { return len(t.names) }

// Name returns the interned name of s. The string is owned by the table
// and safe to retain for the lifetime of the scanner. Name panics on a
// symbol the table never issued.
func (t *SymTab) Name(s Sym) string {
	if p := t.pub.Load(); p != nil {
		return (*p)[s]
	}
	return t.names[s]
}

// publish snapshots names for concurrent readers.
func (t *SymTab) publish() {
	n := t.names
	t.pub.Store(&n)
}

// Reset discards all interned names and symbols. It must not run
// concurrently with any reader (the backing array is reused, so a stale
// snapshot would see renumbered names).
func (t *SymTab) Reset() {
	t.names = t.names[:0]
	t.publish()
	for i := range t.slots {
		t.slots[i] = -1
	}
}

// hashName is FNV-1a over the name bytes.
func hashName(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// hashNameStr is hashName over a string, so rehashing does not convert.
func hashNameStr(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Intern returns the symbol of name, assigning the next dense symbol on
// first occurrence. The name bytes are not retained; the first occurrence
// copies them.
func (t *SymTab) Intern(name []byte) Sym {
	if len(t.slots) == 0 {
		t.grow(symTabInitSlots)
	}
	mask := uint32(len(t.slots) - 1)
	h := hashName(name)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s < 0 {
			// First occurrence: the one allocation this name will ever
			// cost on this table.
			sym := Sym(len(t.names))
			t.names = append(t.names, string(name))
			t.publish()
			t.slots[i] = int32(sym)
			if len(t.names)*4 > len(t.slots)*3 {
				t.grow(len(t.slots) * 2)
			}
			return sym
		}
		// string(name) in a comparison does not allocate.
		if t.names[s] == string(name) {
			return Sym(s)
		}
	}
}

// grow rehashes the table into n slots (a power of two).
func (t *SymTab) grow(n int) {
	if cap(t.slots) >= n {
		t.slots = t.slots[:n]
	} else {
		t.slots = make([]int32, n)
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	mask := uint32(n - 1)
	for s, name := range t.names {
		h := hashNameStr(name)
		i := h & mask
		for t.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(s)
	}
}

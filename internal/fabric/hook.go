package fabric

// OpKind classifies the cache-path operations observable through a node's
// op hook — the events a bus analyzer on the node's fabric port would see.
type OpKind uint8

const (
	// OpMiss: a load or store missed the node cache and fetched a line
	// from home memory (for WriteFresh, a partial edge line it had to
	// fetch to merge into). arg0 = global line index, arg1 = 0.
	OpMiss OpKind = iota
	// OpWriteBack: a single dirty line left the node for home memory (a
	// capacity eviction on the access path). arg0 = global line index,
	// arg1 = 1. Explicit ranged maintenance reports OpWriteBackRange
	// instead — one event for the whole burst.
	OpWriteBack
	// OpFence: the node executed a memory barrier. arg0 = arg1 = 0.
	OpFence
	// OpWriteBackRange: an explicit cache-maintenance call (WriteBackRange,
	// FlushRange, WriteBackAll) pushed a batch of dirty lines home in one
	// pipelined burst, or a WriteFresh sent its whole range home.
	// arg0 = the first (lowest) line index written,
	// arg1 = the number of lines written. The written lines all lie inside
	// the maintained range but need not be contiguous; observers that only
	// need traffic volume read arg1, observers that need placement get the
	// burst's starting line. One ranged event replaces what used to be
	// arg1 per-line OpWriteBack events, so a firehose consumer pays the
	// emit cost once per burst instead of once per line.
	OpWriteBackRange
	// OpReadFresh: a ReadFresh dropped its range and streamed it from home
	// memory without caching it. arg0 = the first line index read, arg1 =
	// the number of lines. The event fires after the copy is complete, so
	// a script that acts on it lands between the fetch and whatever the
	// reader does with the copy.
	OpReadFresh
	// OpAwait: a poll of Node.Await failed and the CPU is about to yield.
	// arg0 = the Wait's word (0 when it has none), arg1 = what the poll
	// saw. It moves no memory; a script that acts on it lands before the
	// next poll.
	OpAwait
)

func (k OpKind) String() string {
	switch k {
	case OpMiss:
		return "miss"
	case OpWriteBack:
		return "write-back"
	case OpFence:
		return "fence"
	case OpWriteBackRange:
		return "write-back-range"
	case OpReadFresh:
		return "read-fresh"
	case OpAwait:
		return "await"
	}
	return "op(?)"
}

// OpHook observes one cache-path operation. The operand meaning is
// per-kind, documented on the OpKind constants. Hooks run inline on the
// node's memory path, outside the cache lock, and may themselves perform
// fabric operations — but anything that can recurse (like a trace
// recorder whose emit path writes back lines) must guard itself, e.g.
// with a suppression counter, or it will re-enter forever.
//
// A word access fires its events as it completes. A bulk transfer (Read,
// Write) and a WriteFresh move every line under one hold of the cache lock
// and fire their events after it, in line order: for Read and Write, each
// line's eviction OpWriteBack and then its OpMiss; for WriteFresh, its
// OpMisses and then the OpWriteBackRange. So a hook that crashes the node
// (Node.Crash) lets the operation that fired the event finish — it sees
// every line, the rest of its events fire — and the crash takes effect at
// the node's next operation, not mid-transfer.
type OpHook func(kind OpKind, arg0, arg1 uint64)

// SetOpHook installs h as the node's op hook; nil removes it. Safe to
// call while the node is running operations. A ranged operation loads the
// hook at most once, at its single notification point: a hook installed
// mid-burst observes either the whole ranged event or nothing, never a
// torn per-line/ranged mix.
func (n *Node) SetOpHook(h OpHook) {
	if h == nil {
		// Order matters against concurrent fireOp: clear the fast-path
		// flag first so new operations skip event assembly, then drop the
		// hook pointer (fireOp still nil-checks it).
		n.hooked.Store(false)
		n.opHook.Store(nil)
		return
	}
	n.opHook.Store(&h)
	n.hooked.Store(true)
}

// fireOp delivers one op event to the installed hook. Hot paths guard
// every call with n.hooked — a single byte load — so the no-hook fast
// path never assembles event operands, loads the hook pointer, or pays
// an indirect call.
func (n *Node) fireOp(k OpKind, arg0, arg1 uint64) {
	if p := n.opHook.Load(); p != nil {
		(*p)(k, arg0, arg1)
	}
}

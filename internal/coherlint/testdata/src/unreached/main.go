// Command unreached is the reachability check's corpus: five planted
// dead declarations (DeadExported, deadHelper, deadSetter,
// liveType.DeadMethod, tally.Visit) beside each way a declaration stays
// live without a direct call, a Config whose fields are written each way
// a program can and cannot turn a knob, three write-only fields beside
// each way a field is read, and four one-value parameters beside each
// way a parameter stays free.
package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// shape is called only through its interface.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

// label is printed by fmt, which calls String through fmt.Stringer.
type label string

func (l label) String() string { return "<" + string(l) + ">" }

// liveType's Visit is passed as a method value and Reset is taken as a
// method expression; DeadMethod is never selected.
type liveType struct{ seen int }

func (v *liveType) Visit(n int) { v.seen += n }

func (v *liveType) Reset() { v.seen = 0 }

func (v *liveType) DeadMethod() int { return v.seen }

// tally is live, and its Visit shares a live method's name, but nothing
// selects it: a selection of liveType's Visit reaches liveType's alone.
type tally struct{ n int }

func (t *tally) Visit(n int) { t.n += n }

func each(f func(int)) {
	for i := range 3 {
		f(i)
	}
}

// sizer's size is called only through a type-parameter constraint.
type sizer interface{ size() int }

type box struct{ w int }

func (b box) size() int { return b.w }

func total[T sizer](xs ...T) int {
	n := 0
	for _, x := range xs {
		n += x.size()
	}
	return n
}

// stack is generic; push is called on an instantiation.
type stack[T any] struct{ items []T }

func (s *stack[T]) push(x T) { s.items = append(s.items, x) }

// outer reaches ping by promotion from the type it embeds.
type inner struct{}

func (inner) ping() int { return 1 }

type outer struct{ inner }

// header lives in shared memory; the coherence analyzers read its layout
// annotation, so no reference keeps it live.
//
//flac:shared
type header struct {
	seq  uint64
	_pad [7]uint64
}

var registered []string

func init() { registered = append(registered, "corpus") }

// Config's Never, Filled, DeadSet, Seed and Zeroed are planted: no live
// code writes the first three, except Filled's own default fill; Seed is
// 1 in every program, written by one literal and filled in the other; and
// Zeroed is 2 in both, the one literal's explicit 0 filled like the
// other's omission. Literal is 1 in one literal and 0 in the other, and
// Assigned is assigned a value known only at run time.
type Config struct {
	Never    int
	Filled   int
	Literal  int
	Assigned int
	DeadSet  int
	Seed     int
	Zeroed   int
}

func (c *Config) fill() {
	if c.Filled == 0 {
		c.Filled = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Zeroed == 0 {
		c.Zeroed = 2
	}
}

func main() {
	var sh shape = square{side: 3}
	v := &liveType{}
	each(v.Visit)
	reset := (*liveType).Reset
	reset(v)
	var s stack[int]
	s.push(total(box{w: 2}))
	c := Config{Literal: 1, Seed: 1, Zeroed: 0}
	c.Assigned = len(registered)
	c.fill()
	d := Config{}
	d.fill()
	t := tally{n: 1}
	fmt.Println(sh.area(), label("x"), v.seen, t.n, s.items, outer{}.ping(), registered, c.Literal, d.Assigned)
	fields()
	params()
}

// DeadExported is planted: nothing calls it.
func DeadExported() int { return deadHelper() }

// deadHelper is planted: only DeadExported calls it.
func deadHelper() int { return 1 }

// deadSetter is planted: nothing calls it, so its write turns no knob.
func deadSetter(c *Config) { c.DeadSet = 1 }

// counters plants three write-only fields: assigned is only assigned,
// literal only set in a composite literal, and added an atomic that is
// only Added. The rest are read: tagged by reflection, id through the
// struct that embeds base, and buf by the function its address goes to.
type counters struct {
	assigned int
	literal  int
	added    atomic.Uint64
	Tagged   string `json:"tagged"`
	buf      [8]byte
	read     atomic.Uint64
}

type base struct{ id int }

type derived struct{ base }

func zero(b *[8]byte) { clear(b[:]) }

func fields() {
	c := &counters{literal: 1, Tagged: "t"}
	c.assigned++
	c.added.Add(1)
	zero(&c.buf)
	c.read.Store(2)
	d := derived{base{id: 7}}
	out, _ := json.Marshal(c)
	fmt.Println(string(out), d.id, c.read.Add(1))
}

// withHook's hook is nil at every call, scale's factor is 3 at every call,
// and describe's verbose and pad's blank string are never used: the four
// planted one-value parameters. The rest stay free: offset is passed two constants, n a
// variable, double is also used as a callback, put is called through an
// interface, and rename's signature is fixed by namer.
func withHook(n int, hook func()) int {
	if hook != nil {
		hook()
	}
	return n
}

func scale(n, factor int) int { return n * factor }

func describe(n int, verbose bool) string { return fmt.Sprint(n) }

func pad(n int, _ string) int { return n + 1 }

func shift(n, offset int) int { return n + offset }

func double(n int) int { return 2 * n }

func apply(f func(int) int, n int) int { return f(n) }

type sink interface{ put(v int) }

type bucket struct{ sum int }

func (b *bucket) put(v int) { b.sum += v }

type namer interface{ rename(s string) }

type file struct{ name string }

func (f *file) rename(s string) { f.name = s }

var _ namer = (*file)(nil)

func params() {
	n := len(registered)
	var k sink = &bucket{}
	k.put(1)
	k.put(1)
	f := &file{}
	f.rename("a")
	f.rename("a")
	fmt.Println(withHook(n, nil), withHook(1, nil), scale(n, 3), scale(2, 3), describe(n, true), describe(n, false), pad(n, "x"),
		shift(n, 1), shift(n, 2), double(2), double(2), apply(double, n), f.name, k.(*bucket).sum)
}

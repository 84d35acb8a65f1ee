// Command unreached is the reachability check's corpus: five planted
// dead declarations (DeadExported, deadHelper, deadSetter,
// liveType.DeadMethod, tally.Visit) beside each way a declaration stays
// live without a direct call, and a Config whose fields are written each
// way a program can and cannot turn a knob.
package main

import "fmt"

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
	fmt.Println(sh.area(), label("x"), v.seen, tally{n: 1}, s.items, outer{}.ping(), registered, c, d)
}

// DeadExported is planted: nothing calls it.
func DeadExported() int { return deadHelper() }

// deadHelper is planted: only DeadExported calls it.
func deadHelper() int { return 1 }

// deadSetter is planted: nothing calls it, so its write turns no knob.
func deadSetter(c *Config) { c.DeadSet = 1 }

// Command unreached is the reachability check's corpus: four planted
// dead declarations (DeadExported, deadHelper, deadSetter,
// liveType.DeadMethod) beside each way a declaration stays live without a
// direct call, and a Config whose fields are written each way a program
// can and cannot turn a knob.
package main

import "fmt"

// shape is called only through its interface.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

// label is printed by fmt, which calls String through fmt.Stringer.
type label string

func (l label) String() string { return "<" + string(l) + ">" }

// liveType's Visit is passed as a method value; DeadMethod is never
// selected.
type liveType struct{ seen int }

func (v *liveType) Visit(n int) { v.seen += n }

func (v *liveType) DeadMethod() int { return v.seen }

func each(f func(int)) {
	for i := range 3 {
		f(i)
	}
}

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

// Config's Never, Filled and DeadSet are planted: no live code writes
// them, except Filled's own default fill.
type Config struct {
	Never    int
	Filled   int
	Literal  int
	Assigned int
	DeadSet  int
}

func (c *Config) fill() {
	if c.Filled == 0 {
		c.Filled = 4
	}
}

func main() {
	var sh shape = square{side: 3}
	v := &liveType{}
	each(v.Visit)
	c := Config{Literal: 1}
	c.Assigned = 2
	c.fill()
	fmt.Println(sh.area(), label("x"), v.seen, registered, c)
}

// DeadExported is planted: nothing calls it.
func DeadExported() int { return deadHelper() }

// deadHelper is planted: only DeadExported calls it.
func deadHelper() int { return 1 }

// deadSetter is planted: nothing calls it, so its write turns no knob.
func deadSetter(c *Config) { c.DeadSet = 1 }

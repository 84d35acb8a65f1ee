// Command unreached is the reachability check's corpus: three planted
// dead declarations (DeadExported, deadHelper, liveType.DeadMethod)
// beside each way a declaration stays live without a direct call.
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

func main() {
	var sh shape = square{side: 3}
	v := &liveType{}
	each(v.Visit)
	fmt.Println(sh.area(), label("x"), v.seen, registered)
}

// DeadExported is planted: nothing calls it.
func DeadExported() int { return deadHelper() }

// deadHelper is planted: only DeadExported calls it.
func deadHelper() int { return 1 }

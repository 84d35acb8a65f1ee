package delegation

import (
	"testing"

	"flacos/internal/fabric"
)

// TestCallWaitMatchesItsLoop: node 1 calls into node 0's partition and the
// owner sweeps at the caller's k-th failed poll. Call charges the caller
// exactly what the loop it replaced charged under the same script.
func TestCallWaitMatchesItsLoop(t *testing.T) {
	echo := func(op uint32, req, resp []byte) (int, uint32) { return copy(resp, req), op }
	build := func() (*Client, *Server) {
		f := fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
		d := NewDomain(f, 2)
		return d.Client(f.Node(1), 1), d.Server(f.Node(0), echo)
	}
	req, resp := []byte("sixteen byte req"), make([]byte, PayloadMax)
	for _, k := range []int{1, 3, 8} {
		c, sv := build()
		polls := 0
		c.n.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
			if kind == fabric.OpAwait {
				if polls++; polls == k {
					sv.ServeOnce()
				}
			}
		})
		before := c.n.Stats()
		gotLen, gotSt := c.Call(7, req, resp)
		c.n.SetOpHook(nil)
		got := c.n.Stats().Delta(before)
		if polls != k || gotLen != len(req) || gotSt != 7 {
			t.Fatalf("Call returned %d, %d after %d failed polls, want %d, 7 after the scripted %d", gotLen, gotSt, polls, len(req), k)
		}

		rc, rsv := build()
		before = rc.n.Stats()
		rc.Post(7, req)
		for i := 1; ; i++ {
			if _, _, done := rc.TryComplete(resp); done {
				break
			}
			if i == k {
				rsv.ServeOnce()
			}
		}
		if want := rc.n.Stats().Delta(before); got != want || got.VirtualNS == 0 {
			t.Fatalf("after %d failed polls Call charged\n  %+v\nthe loop it replaced\n  %+v", k, got, want)
		}
	}
}

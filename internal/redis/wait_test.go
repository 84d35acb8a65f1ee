package redis

import (
	"bytes"
	"testing"

	"flacos/internal/fabric"
)

// TestCombineWaitsMatchTheirLoops: a client on node 1 posts to the owner
// on node 0, which sweeps at the client's k-th failed poll. Get and IncrBy
// charge the client exactly what the loops they replaced charged under the
// same script, and return the same answers.
func TestCombineWaitsMatchTheirLoops(t *testing.T) {
	build := func() (*Combiner, *CombineClient) {
		cb, cl := newCombineRig(t, 2, 2)
		if err := cb.View().Set("k", []byte("v1"), 0); err != nil {
			t.Fatal(err)
		}
		return cb, cl[1]
	}
	type result struct {
		val []byte
		n   int64
		ok  bool
		err error
	}
	sites := map[string]struct {
		site func(cc *CombineClient) result
		post func(cc *CombineClient)
		try  func(cc *CombineClient) (result, bool)
	}{
		"Get": {
			site: func(cc *CombineClient) result { v, ok, err := cc.Get("k"); return result{val: v, ok: ok, err: err} },
			post: func(cc *CombineClient) { cc.PostGet("k") },
			try: func(cc *CombineClient) (result, bool) {
				v, ok, done, err := cc.TryGet()
				return result{val: v, ok: ok, err: err}, done
			},
		},
		"IncrBy": {
			site: func(cc *CombineClient) result { v, err := cc.IncrBy("ctr", 5); return result{n: v, err: err} },
			post: func(cc *CombineClient) { cc.PostIncrBy("ctr", 5) },
			try: func(cc *CombineClient) (result, bool) {
				v, done, err := cc.TryIncr()
				return result{n: v, err: err}, done
			},
		},
	}
	for name, s := range sites {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 3, 8} {
				cb, cc := build()
				polls := 0
				cc.n.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
					if kind == fabric.OpAwait {
						if polls++; polls == k {
							cb.ServeSweep()
						}
					}
				})
				before := cc.n.Stats()
				got := s.site(cc)
				cc.n.SetOpHook(nil)
				gotStats := cc.n.Stats().Delta(before)
				if polls != k {
					t.Fatalf("the site failed %d polls, want the scripted %d", polls, k)
				}

				rcb, rcc := build()
				before = rcc.n.Stats()
				s.post(rcc)
				var want result
				for i := 1; ; i++ {
					var done bool
					if want, done = s.try(rcc); done {
						break
					}
					if i == k {
						rcb.ServeSweep()
					}
				}
				wantStats := rcc.n.Stats().Delta(before)
				if !bytes.Equal(got.val, want.val) || got.n != want.n || got.ok != want.ok || got.err != want.err || gotStats != wantStats || gotStats.VirtualNS == 0 {
					t.Fatalf("after %d failed polls the site gave %+v and charged\n  %+v\nthe loop it replaced %+v and\n  %+v", k, got, gotStats, want, wantStats)
				}
			}
		})
	}
}

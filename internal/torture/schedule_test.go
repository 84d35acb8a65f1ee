package torture

import (
	"strings"
	"testing"
)

// TestScheduleGolden pins the fault schedule that buildSchedule draws from
// a seed, event by event. TestTortureDeterminism compares two runs of one
// binary, so it cannot see a change to the draws themselves (a rate, a hop
// count or a fault class moved); this golden can.
func TestScheduleGolden(t *testing.T) {
	want := map[int64]string{
		1: `@152    crash node=2
@271    restart node=2
@394    degrade-on node=2 hops=+2
@498    degrade-off node=2 hops=+0
@586    crash node=1
@674    restart node=1
@760    dropwb-on ppm=400
@858    dropwb-off ppm=0
@991    crash node=2
@1050   restart node=2
@1187   dropwb-on ppm=100
@1261   dropwb-off ppm=0`,
		7: `@190    crash node=1
@284    restart node=1
@391    degrade-on node=1 hops=+4
@487    degrade-off node=1 hops=+0
@566    degrade-on node=2 hops=+4
@685    degrade-off node=2 hops=+0
@767    crash node=2
@888    restart node=2
@981    degrade-on node=2 hops=+1
@1054   degrade-off node=2 hops=+0
@1166   dropwb-on ppm=100
@1258   dropwb-off ppm=0`,
		42: `@194    degrade-on node=1 hops=+3
@257    degrade-off node=1 hops=+0
@367    corrupt-on ppm=200
@467    corrupt-off ppm=0
@567    corrupt-on ppm=100
@669    corrupt-off ppm=0
@763    corrupt-on ppm=100
@869    corrupt-off ppm=0
@954    corrupt-on ppm=400
@1061   corrupt-off ppm=0
@1191   crash node=2
@1291   restart node=2`,
	}
	for _, seed := range []int64{1, 7, 42} {
		cfg := Config{Seed: seed}
		cfg.fillDefaults()
		var lines []string
		for _, ev := range buildSchedule(cfg, FaultAll, 1500) {
			lines = append(lines, ev.String())
		}
		if got := strings.Join(lines, "\n"); got != want[seed] {
			t.Errorf("seed %d schedule:\n%s\nwant:\n%s", seed, got, want[seed])
		}
	}
}

// Rediscompare runs the paper's Figure 4 end to end on the public API: a
// mini-Redis server on node 0 serving a client on node 1, first over the
// simulated TCP/IP stack, then over FlacOS zero-copy IPC, printing the
// per-request latency and the FlacOS speedup.
package main

import (
	"fmt"
	"log"

	"flacos/internal/experiments"
)

func main() {
	fmt.Println("Redis across the rack: TCP networking vs FlacOS IPC")
	fmt.Println("(server on node 0, client on node 1, values 64B and 4KiB)")
	fmt.Println()

	res := experiments.Fig4(experiments.Fig4Config{Requests: 1000})
	fmt.Println(res.String())

	fmt.Println("The paper reports FlacOS cutting Redis latency 1.75-2.4x on a")
	fmt.Println("real 640-core HCCS rack; the simulation reproduces the shape:")
	for k, v := range res.Ratios {
		if v < 1.3 {
			log.Fatalf("unexpected: %s only %.2fx", k, v)
		}
	}
	fmt.Println("every SET/GET size shows FlacOS ahead by a similar factor.")
}

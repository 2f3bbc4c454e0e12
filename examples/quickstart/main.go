// Quickstart: detect false sharing between two goroutines with the public
// predator API in ~50 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"
)

import "predator"

func main() {
	// A detector with thresholds scaled for this tiny example.
	cfg := predator.DefaultRuntimeConfig()
	cfg.TrackingThreshold = 10
	cfg.PredictionThreshold = 20
	cfg.ReportThreshold = 100
	cfg.SampleWindow = 0 // record everything
	d, err := predator.New(predator.Options{HeapSize: 8 << 20, Runtime: &cfg})
	if err != nil {
		log.Fatal(err)
	}

	// One 64-byte object; two threads hammer neighbouring words of it.
	alice := d.Thread("alice")
	bob := d.Thread("bob")
	addr, err := alice.AllocWithOffset(64, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The threads hand one turn token back and forth every 64 stores, so
	// their stores interleave however the host schedules them.
	const stores, batch = 50000, 64
	turn := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	turn[0] <- struct{}{}
	var wg sync.WaitGroup
	for i, t := range []*predator.Thread{alice, bob} {
		wg.Add(1)
		go func(i int, t *predator.Thread, word uint64) {
			defer wg.Done()
			for n := 0; n < stores; n++ {
				if n%batch == 0 {
					<-turn[i]
				}
				t.Store64(word, uint64(n)) // false sharing: same line, distinct words
				if n%batch == batch-1 || n == stores-1 {
					turn[1-i] <- struct{}{}
				}
			}
		}(i, t, addr+uint64(i)*8)
	}
	wg.Wait()

	rep := d.Report()
	fmt.Printf("findings: %d (false sharing: %d)\n\n",
		len(rep.Findings), len(rep.FalseSharing()))
	for _, f := range rep.FalseSharing() {
		fmt.Println(f.Format(d.Geometry()))
	}
}

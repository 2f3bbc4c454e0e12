// Doubled-line-size prediction (§3, Figure 3b): code that is perfectly
// padded for 64-byte cache lines can still falsely share on hardware with
// 128-byte lines (e.g. Apple M-series or POWER9). This example pads two
// threads' counters exactly one 64-byte line apart — clean on today's
// machine — and shows PREDATOR predicting the problem a larger-line machine
// would have, verified on a virtual 128-byte line.
//
//	go run ./examples/biglines
package main

import (
	"fmt"
	"log"
	"sync"
)

import "predator"

func main() {
	cfg := predator.DefaultRuntimeConfig()
	cfg.TrackingThreshold = 20
	cfg.PredictionThreshold = 50
	cfg.ReportThreshold = 200
	cfg.SampleWindow = 0
	d, err := predator.New(predator.Options{HeapSize: 8 << 20, Runtime: &cfg})
	if err != nil {
		log.Fatal(err)
	}

	main := d.Thread("main")
	// Two counters, 64 bytes apart, line-aligned: "properly padded" for
	// 64-byte lines.
	block, err := main.AllocWithOffset(128, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The writers hand one turn token back and forth every 16 stores, so
	// their stores interleave however the host schedules them.
	const stores, batch = 50000, 16
	turn := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	turn[0] <- struct{}{}
	var wg sync.WaitGroup
	for i, t := range []*predator.Thread{d.Thread("even"), d.Thread("odd")} {
		wg.Add(1)
		go func(i int, t *predator.Thread, word uint64) {
			defer wg.Done()
			for n := 0; n < stores; n++ {
				if n%batch == 0 {
					<-turn[i]
				}
				t.Store64(word, uint64(n))
				if n%batch == batch-1 || n == stores-1 {
					turn[1-i] <- struct{}{}
				}
			}
		}(i, t, block+uint64(i)*64)
	}
	wg.Wait()

	rep := d.Report()
	fmt.Printf("observed (64-byte line) false sharing findings: %d\n", len(rep.Observed()))
	predicted := rep.Predicted()
	fmt.Printf("predicted findings: %d\n\n", len(predicted))
	for _, f := range predicted {
		if f.Source == predator.SourcePredictedLineSize {
			fmt.Println("On hardware with 128-byte cache lines this pair WOULD falsely share:")
			fmt.Println(f.Format(d.Geometry()))
			return
		}
	}
	fmt.Println("(no doubled-line prediction; try more iterations)")
}

package obs

import (
	"sync"
	"time"
)

// Heartbeat periodically rewrites the Prometheus snapshot file — the
// liveness signal for long eval runs scraped from outside.
type Heartbeat struct {
	reg      *Registry
	interval time.Duration
	path     string

	stop chan struct{}
	wg   sync.WaitGroup
}

// StartHeartbeat begins a heartbeat loop that rewrites snapshotPath from
// reg every interval. It returns nil (and starts nothing) when the registry
// is nil, the interval is not positive or there is no path; Stop is safe on
// the nil result, so call sites need no conditional.
func StartHeartbeat(reg *Registry, interval time.Duration, snapshotPath string) *Heartbeat {
	if reg == nil || interval <= 0 || snapshotPath == "" {
		return nil
	}
	hb := &Heartbeat{reg: reg, interval: interval, path: snapshotPath, stop: make(chan struct{})}
	hb.wg.Add(1)
	go hb.loop()
	return hb
}

// loop beats until stopped.
func (hb *Heartbeat) loop() {
	defer hb.wg.Done()
	t := time.NewTicker(hb.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			hb.beat()
		case <-hb.stop:
			return
		}
	}
}

// beat refreshes the snapshot file. A failed write is left for the next
// beat or the final flush, which reports its error.
func (hb *Heartbeat) beat() {
	_ = hb.reg.WriteSnapshotFile(hb.path)
}

// Stop ends the loop after one final beat, so the snapshot file reflects
// the end state even when the ticker never fired. Safe on a nil receiver.
func (hb *Heartbeat) Stop() {
	if hb == nil {
		return
	}
	close(hb.stop)
	hb.wg.Wait()
	hb.beat()
}

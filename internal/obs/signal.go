package obs

import (
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// FlushOnInterrupt installs a SIGINT/SIGTERM handler that runs flush exactly
// once and then exits with the conventional 128+signal code (130 for SIGINT,
// 143 for SIGTERM). It exists so an interrupted run still leaves a complete
// metrics file: the flush callback is where CLIs write their export files.
//
// exit defaults to os.Exit; tests inject a recorder. The returned stop
// function uninstalls the handler (call it on the clean-shutdown path so a
// late ^C after the normal flush doesn't double-flush).
func FlushOnInterrupt(flush func(), exit func(code int)) (stop func()) {
	if exit == nil {
		exit = os.Exit
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		select {
		case sig := <-ch:
			if flush != nil {
				flush()
			}
			code := 130
			if sig == syscall.SIGTERM {
				code = 143
			}
			exit(code)
		case <-done:
		}
	}()
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}

package diag

import (
	"context"
	"flag"
	"time"
)

// Flags is the standard -diag-* flag group the agent CLIs (predator,
// predbench, predreplay) share, so the diagnostics surface reads the same
// everywhere instead of each CLI growing its own copy.
type Flags struct {
	Addr   *string
	Linger *time.Duration
}

// RegisterFlags declares the -diag-* flags on fs (flag.CommandLine in the
// CLIs).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		Addr: fs.String("diag-addr", "",
			"serve live diagnostics (metrics, hotlines, findings, timeline, spans, pprof) on this host:port"),
		Linger: fs.Duration("diag-linger", 0,
			"keep the diagnostics server (and final runtime state) scrapeable this long after the run"),
	}
}

// Enabled reports whether the diagnostics server was requested.
func (f *Flags) Enabled() bool { return f.Addr != nil && *f.Addr != "" }

// LingerDuration returns the post-run linger the user picked (0 = none).
func (f *Flags) LingerDuration() time.Duration {
	if f.Linger == nil {
		return 0
	}
	return *f.Linger
}

// ShutdownAfterLinger sleeps out the linger window (announcing it via logf
// when set), then gracefully shuts s down. The CLIs defer this.
func (f *Flags) ShutdownAfterLinger(s *Server, logf func(format string, args ...any)) {
	if s == nil {
		return
	}
	if d := f.LingerDuration(); d > 0 {
		if logf != nil {
			logf("diagnostics: lingering %s for final scrapes", d)
		}
		time.Sleep(d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	_ = s.Shutdown(ctx)
}

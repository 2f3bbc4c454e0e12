package fleetclient

import (
	"flag"
	"fmt"
	"os"
	"time"

	"predator/internal/fleet"
	"predator/internal/obs"
)

// Flags is the standard -fleet-* flag group the agent CLIs share. Register
// it after the CLI's own flags; Enabled reports whether the user asked for
// fleet mode at all.
type Flags struct {
	Addr     *string
	Token    *string
	Project  *string
	Run      *string
	Spool    *string
	Interval *time.Duration
}

// RegisterFlags declares the -fleet-* flags on fs (flag.CommandLine in the
// CLIs).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		Addr:    fs.String("fleet-addr", "", "stream findings and metrics to the predfleet service at this host:port"),
		Token:   fs.String("fleet-token", "", "bearer token for -fleet-addr"),
		Project: fs.String("fleet-project", "default", "project name this run reports under"),
		Run:     fs.String("fleet-run", "", "run identifier (default: derived from tool/host/pid/time)"),
		Spool:   fs.String("fleet-spool", "", "spool undeliverable fleet payloads to this local JSONL file and replay them when the server returns"),
		Interval: fs.Duration("fleet-interval", 2*time.Second,
			"metrics snapshot cadence streamed to the fleet (refreshes its hotlines view)"),
	}
}

// ReportInterval is the metrics cadence the user picked (the StartReporter
// argument); values <= 0 fall back to the 2s default inside StartReporter.
func (f *Flags) ReportInterval() time.Duration {
	if f.Interval == nil {
		return 0
	}
	return *f.Interval
}

// Enabled reports whether fleet streaming was requested.
func (f *Flags) Enabled() bool { return f.Addr != nil && *f.Addr != "" }

// Client builds the exporter for the flag values, plus the run ID every
// payload from this process should carry. Degradation notices go to stderr
// prefixed with the tool name.
func (f *Flags) Client(tool string) (*Client, string, error) {
	c, err := New(Config{
		Addr:      *f.Addr,
		Token:     *f.Token,
		Project:   *f.Project,
		Tool:      tool,
		SpoolPath: *f.Spool,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
		},
	})
	if err != nil {
		return nil, "", err
	}
	runID := *f.Run
	if runID == "" {
		runID = NewRunID(tool, time.Now())
	}
	return c, runID, nil
}

// RunMeta fills the standard identity fields for this client's runs.
func (c *Client) RunMeta(runID string, now time.Time) fleet.RunMeta {
	return fleet.RunMeta{
		ID:      runID,
		Project: c.cfg.Project,
		Agent:   c.cfg.Agent,
		Tool:    c.cfg.Tool,
		Version: obs.GetBuildInfo().Version,
		UnixMs:  now.UnixMilli(),
	}
}

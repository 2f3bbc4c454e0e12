// Command predtop is a live top-N viewer for the hottest cache lines of one
// running detector. It polls the detector's diagnostics server (/hotlines,
// see predator -diag-addr) and shows per-word ownership heatmaps.
//
//	predator -workload mysql -diag-addr 127.0.0.1:9142 &
//	predtop -addr 127.0.0.1:9142
//	predtop -addr 127.0.0.1:9142 -n 20 -interval 500ms
//	predtop -addr 127.0.0.1:9142 -once          # one frame, no screen clear
//
// While the viewer runs, 't' dumps the hottest line's flight-recorder
// timeline (the server's /timeline endpoint) to a Perfetto-loadable JSON
// file in -timeline-dir, and 'q' quits.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"predator/internal/obs"
	"predator/internal/obs/diag"
	"predator/internal/obs/topview"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9142", "diagnostics server address (predator -diag-addr)")
		n        = flag.Int("n", 10, "how many hot lines to show")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render a single frame and exit (no screen clearing)")
		width    = flag.Int("width", 0, "clip rendered lines to this many columns (0: auto-detect the terminal, unlimited on pipes)")
		tlDir    = flag.String("timeline-dir", ".", "directory the 't' keystroke writes timeline dumps into")
		version  = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("predtop " + obs.GetBuildInfo().String())
		return
	}

	httpc := &http.Client{Timeout: 5 * time.Second}
	client := &topview.Client{HTTP: httpc, URL: fmt.Sprintf("http://%s/hotlines?n=%d", *addr, *n)}

	// Keyboard: best effort. Raw mode delivers single keystrokes; when it is
	// unavailable (stdin is a pipe) keys still arrive after Enter.
	var keys chan byte
	if !*once {
		if restore, err := rawMode(os.Stdin); err == nil {
			defer restore()
		}
		keys = make(chan byte)
		go func() {
			buf := make([]byte, 1)
			for {
				if _, err := os.Stdin.Read(buf); err != nil {
					return
				}
				keys <- buf[0]
			}
		}()
	}

	cols := *width
	if cols == 0 {
		cols = termWidth(os.Stdout)
	}
	opts := topview.LoopOptions{
		Interval: *interval,
		Once:     *once,
		Out:      os.Stdout,
		Width:    cols,
		Footer:   "[t] dump hottest line timeline   [q] quit",
		Keys:     keys,
		OnKey: func(k byte, last *diag.HotLinesResponse) string {
			if k == 't' || k == 'T' {
				return dumpTimeline(httpc, *addr, *tlDir, last)
			}
			return ""
		},
	}
	if err := topview.Loop(client, opts); err != nil {
		fmt.Fprintf(os.Stderr, "predtop: %v\n", err)
		os.Exit(1)
	}
}

// dumpTimeline saves the hottest line's /timeline JSON into dir and returns
// a status line for the viewer footer.
func dumpTimeline(client *http.Client, addr, dir string, last *diag.HotLinesResponse) string {
	if last == nil || last.Count == 0 {
		return "timeline: no tracked lines yet"
	}
	line := last.Lines[0].Line
	resp, err := client.Get(fmt.Sprintf("http://%s/timeline?line=%d", addr, line))
	if err != nil {
		return fmt.Sprintf("timeline: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Sprintf("timeline: %s: %s", resp.Status, string(body))
	}
	path := filepath.Join(dir, fmt.Sprintf("predtop-line%d-%d.json", line, time.Now().Unix()))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Sprintf("timeline: %v", err)
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return fmt.Sprintf("timeline: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Sprintf("timeline: %v", err)
	}
	return fmt.Sprintf("timeline: line %d -> %s (load in ui.perfetto.dev)", line, path)
}

// Package topview is the shared client behind predtop: it polls a hot-lines
// endpoint — either one process's diagnostics server (/hotlines) or the
// fleet service's aggregated view (/api/v1/hotlines) — and renders the
// refreshing top-N table. Factoring the fetch/render loop here keeps the
// single-process and fleet modes on one code path; the predtop command adds
// only terminal plumbing (raw keyboard mode, timeline dumps).
package topview

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"predator/internal/core"
	"predator/internal/detect"
)

// Stats is the header counter block both servers report (snake_case JSON,
// the same shape diag.StatsJSON and fleet.StatsSnapshot serialize to).
type Stats struct {
	Accesses      uint64 `json:"accesses"`
	Writes        uint64 `json:"writes"`
	TrackedLines  int    `json:"tracked_lines"`
	VirtualLines  int    `json:"virtual_lines"`
	Invalidations uint64 `json:"invalidations"`
	DegradedLines int    `json:"degraded_lines"`
	Evictions     uint64 `json:"evictions"`
	Degraded      bool   `json:"degraded"`
	Elided        uint64 `json:"elided,omitempty"`
}

// Line is one hot line in a frame. The embedded LineSnapshot carries the
// per-process diagnostics fields (including the per-word ownership view);
// fleet responses instead pre-render Owners and tag the line's origin.
type Line struct {
	core.LineSnapshot
	Owners  string `json:"owners,omitempty"`
	Project string `json:"project,omitempty"`
	Agent   string `json:"agent,omitempty"`
	// Trace is the span trace ID of the run this line came from (fleet
	// responses only, and only when the run shipped spans) — the handle into
	// /dash/{project}/trace/{id}.
	Trace string `json:"trace,omitempty"`
}

// Frame is one polled snapshot, decoded from either server's response.
type Frame struct {
	Tool      string `json:"tool"`
	UnixMilli int64  `json:"unix_ms"`
	Requested int    `json:"requested"`
	Count     int    `json:"count"`
	Agents    int    `json:"agents,omitempty"` // fleet only
	Stats     Stats  `json:"stats"`
	Lines     []Line `json:"lines"`
}

// Client polls one hot-lines URL.
type Client struct {
	HTTP  *http.Client
	URL   string // full URL including any query parameters
	Token string // optional bearer token (fleet mode)
}

// Poll fetches and decodes one frame.
func (c *Client) Poll() (*Frame, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Second}
	}
	req, err := http.NewRequest(http.MethodGet, c.URL, nil)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("GET %s: %s: %s", c.URL, resp.Status, string(body))
	}
	var out Frame
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET %s: %v", c.URL, err)
	}
	return &out, nil
}

// Heatmap compresses the per-word ownership view into one glyph per word:
// '.' untouched, 'S' effectively shared, else the owning thread id mod 10.
// Two different digits (or any digit next to an S) on one line is the
// visual signature of false sharing.
func Heatmap(ln core.LineSnapshot) string {
	if len(ln.Words) == 0 {
		return ""
	}
	maxIdx := 0
	for _, w := range ln.Words {
		if w.Index > maxIdx {
			maxIdx = w.Index
		}
	}
	glyphs := make([]byte, maxIdx+1)
	for i := range glyphs {
		glyphs[i] = '.'
	}
	for _, w := range ln.Words {
		switch {
		case w.Owner == detect.OwnerShared:
			glyphs[w.Index] = 'S'
		case w.Owner >= 0:
			glyphs[w.Index] = byte('0' + w.Owner%10)
		}
	}
	return string(glyphs)
}

// owners resolves a line's heatmap: fleet responses pre-render it, the
// diagnostics server ships raw words.
func (ln *Line) owners() string {
	if ln.Owners != "" {
		return ln.Owners
	}
	return Heatmap(ln.LineSnapshot)
}

// origin formats the fleet origin tag.
func (ln *Line) origin() string {
	switch {
	case ln.Project != "" && ln.Agent != "":
		return ln.Project + "/" + ln.Agent
	case ln.Project != "":
		return ln.Project
	case ln.Agent != "":
		return ln.Agent
	default:
		return "-"
	}
}

// shortTrace abbreviates a 32-hex trace ID to its 12-char prefix for the
// table ("-" when the line has none); the full ID lives in the JSON frame.
func shortTrace(id string) string {
	if id == "" {
		return "-"
	}
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// RenderOptions parameterize RenderWith.
type RenderOptions struct {
	// ShowOrigin adds the fleet ORIGIN column (project/agent per line).
	ShowOrigin bool
	// Width clips every rendered line to this many cells, marking clipped
	// lines with a trailing '…' (0: unlimited). Narrow terminals stay
	// readable instead of wrapping mid-table.
	Width int
}

// Render draws one frame at unlimited width. showOrigin adds the fleet
// ORIGIN column (project/agent each line came from).
func Render(w io.Writer, r *Frame, showOrigin bool) {
	RenderWith(w, r, RenderOptions{ShowOrigin: showOrigin})
}

// RenderWith draws one frame honoring the options.
func RenderWith(w io.Writer, r *Frame, opts RenderOptions) {
	if opts.Width > 0 {
		var buf bytes.Buffer
		renderFrame(&buf, r, opts)
		for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
			fmt.Fprintln(w, clipLine(line, opts.Width))
		}
		return
	}
	renderFrame(w, r, opts)
}

// clipLine truncates one rendered line to width cells, spending the last
// cell on '…' so truncation is visible.
func clipLine(line string, width int) string {
	runes := []rune(line)
	if len(runes) <= width {
		return line
	}
	if width <= 1 {
		return "…"
	}
	return string(runes[:width-1]) + "…"
}

func renderFrame(w io.Writer, r *Frame, opts RenderOptions) {
	showOrigin := opts.ShowOrigin
	st := r.Stats
	fmt.Fprintf(w, "predtop — %s  %s\n", r.Tool,
		time.UnixMilli(r.UnixMilli).Format("15:04:05"))
	fmt.Fprintf(w, "accesses=%d writes=%d tracked=%d virtual=%d invalidations=%d",
		st.Accesses, st.Writes, st.TrackedLines, st.VirtualLines, st.Invalidations)
	if st.Elided > 0 {
		fmt.Fprintf(w, " elided=%d", st.Elided)
	}
	if r.Agents > 0 {
		fmt.Fprintf(w, "  agents=%d", r.Agents)
	}
	if st.Degraded {
		fmt.Fprintf(w, "  DEGRADED(lines=%d evictions=%d)", st.DegradedLines, st.Evictions)
	}
	fmt.Fprint(w, "\n\n") // end the header, then one blank line
	if r.Count == 0 {
		fmt.Fprintln(w, "(no tracked lines yet)")
		return
	}
	origin := ""
	if showOrigin {
		origin = fmt.Sprintf(" %-20s", "ORIGIN")
	}
	// The TRACE column appears only when at least one line carries a span
	// trace ID, so single-process frames keep their old layout.
	showTrace := false
	for i := range r.Lines {
		if r.Lines[i].Trace != "" {
			showTrace = true
			break
		}
	}
	traceHdr := ""
	if showTrace {
		traceHdr = fmt.Sprintf(" %-12s", "TRACE")
	}
	fmt.Fprintf(w, "%-4s %-12s %10s %10s %9s %8s %-8s %-4s %4s%s%s  %s\n",
		"#", "LINE", "INVAL", "ACCESS", "WRITES", "RECORDED", "WINDOW", "FLAG", "VIRT", origin, traceHdr, "WORD OWNERS")
	for i := range r.Lines {
		ln := &r.Lines[i]
		window := "-"
		if ln.WindowLen > 0 {
			phase := "idle"
			if ln.Recording {
				phase = "rec"
			}
			window = fmt.Sprintf("%d/%d %s", ln.WindowPos, ln.WindowLen, phase)
		}
		flags := ""
		if ln.ReportWorthy {
			flags += "R"
		}
		if ln.Degraded {
			flags += "D"
		}
		if flags == "" {
			flags = "-"
		}
		origin := ""
		if showOrigin {
			origin = fmt.Sprintf(" %-20s", ln.origin())
		}
		traceCol := ""
		if showTrace {
			traceCol = fmt.Sprintf(" %-12s", shortTrace(ln.Trace))
		}
		fmt.Fprintf(w, "%-4d %#-12x %10d %10d %9d %8d %-8s %-4s %4d%s%s  %s\n",
			i+1, ln.Addr, ln.Invalidations, ln.Accesses, ln.Writes, ln.Recorded,
			window, flags, len(ln.Virtual), origin, traceCol, ln.owners())
	}
}

// LoopOptions parameterizes Loop.
type LoopOptions struct {
	// Interval is the refresh period (default 1s).
	Interval time.Duration
	// Once renders a single frame and returns (no screen clearing).
	Once bool
	// Out receives the rendered frames (default os.Stdout semantics are the
	// caller's: pass the writer explicitly).
	Out io.Writer
	// ShowOrigin adds the fleet ORIGIN column.
	ShowOrigin bool
	// Width clips rendered lines (0: unlimited); see RenderOptions.Width.
	Width int
	// Footer is printed under each frame in live mode.
	Footer string
	// Keys delivers keystrokes in live mode (nil: timer only). 'q', 'Q',
	// and ^C quit; other keys go to OnKey.
	Keys <-chan byte
	// OnKey handles non-quit keystrokes against the last frame, returning a
	// one-shot status line rendered under the next frame.
	OnKey func(k byte, last *Frame) (status string)
}

// Loop runs the poll/render cycle until quit: the single code path behind
// predtop's single-process and fleet modes. It returns an error only when
// the first poll fails (bad address / server not up); a server that goes
// away mid-session ends the loop cleanly after two confirming failures.
func Loop(c *Client, opts LoopOptions) error {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	var last *Frame
	var status string // one-shot message rendered under the next frame
	failures := 0
	frames := 0
	for {
		resp, err := c.Poll()
		switch {
		case err == nil:
			failures = 0
			frames++
			last = resp
			if !opts.Once {
				fmt.Fprint(opts.Out, "\033[2J\033[H") // clear screen, home cursor
			}
			RenderWith(opts.Out, resp, RenderOptions{ShowOrigin: opts.ShowOrigin, Width: opts.Width})
			if !opts.Once {
				if opts.Footer != "" {
					fmt.Fprintln(opts.Out, "\n"+opts.Footer)
				}
				if status != "" {
					fmt.Fprintln(opts.Out, status)
					status = ""
				}
			}
		case frames == 0:
			// Never connected: bad address or server not up yet.
			return err
		default:
			// The server went away mid-session (run finished): exit clean
			// after a couple of confirming failures.
			failures++
			if failures >= 2 {
				fmt.Fprintf(opts.Out, "predtop: %s stopped serving; exiting\n", c.URL)
				return nil
			}
		}
		if opts.Once {
			return nil
		}
		// Keys interrupt the wait; the refresh timer re-renders otherwise.
		timer := time.NewTimer(opts.Interval)
	wait:
		for {
			select {
			case k := <-opts.Keys:
				switch k {
				case 'q', 'Q', 3: // q or ^C (raw mode swallows the signal)
					timer.Stop()
					return nil
				default:
					if opts.OnKey != nil {
						status = opts.OnKey(k, last)
						timer.Stop()
						break wait // re-render now so the status shows
					}
				}
			case <-timer.C:
				break wait
			}
		}
	}
}

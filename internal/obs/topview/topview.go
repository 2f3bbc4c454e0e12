// Package topview is the client behind predtop: it polls one process's
// diagnostics server (/hotlines) and renders the refreshing top-N table. The
// predtop command adds only terminal plumbing (raw keyboard mode, timeline
// dumps).
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
	"predator/internal/obs/diag"
)

// Client polls one hot-lines URL.
type Client struct {
	HTTP *http.Client
	URL  string // full URL including any query parameters
}

// Poll fetches and decodes one /hotlines response. Each line carries the
// per-word ownership view the heatmap is drawn from.
func (c *Client) Poll() (*diag.HotLinesResponse, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := httpc.Get(c.URL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("GET %s: %s: %s", c.URL, resp.Status, string(body))
	}
	var out diag.HotLinesResponse
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

// RenderOptions parameterize RenderWith.
type RenderOptions struct {
	// Width clips every rendered line to this many cells, marking clipped
	// lines with a trailing '…' (0: unlimited). Narrow terminals stay
	// readable instead of wrapping mid-table.
	Width int
}

// Render draws one frame at unlimited width.
func Render(w io.Writer, r *diag.HotLinesResponse) {
	RenderWith(w, r, RenderOptions{})
}

// RenderWith draws one frame honoring the options.
func RenderWith(w io.Writer, r *diag.HotLinesResponse, opts RenderOptions) {
	if opts.Width > 0 {
		var buf bytes.Buffer
		renderFrame(&buf, r)
		for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
			fmt.Fprintln(w, clipLine(line, opts.Width))
		}
		return
	}
	renderFrame(w, r)
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

func renderFrame(w io.Writer, r *diag.HotLinesResponse) {
	st := r.Stats
	fmt.Fprintf(w, "predtop — %s  %s\n", r.Tool,
		time.UnixMilli(r.UnixMilli).Format("15:04:05"))
	fmt.Fprintf(w, "accesses=%d writes=%d tracked=%d virtual=%d invalidations=%d",
		st.Accesses, st.Writes, st.TrackedLines, st.VirtualLines, st.Invalidations)
	if st.Elided > 0 {
		fmt.Fprintf(w, " elided=%d", st.Elided)
	}
	fmt.Fprint(w, "\n\n") // end the header, then one blank line
	if r.Count == 0 {
		fmt.Fprintln(w, "(no tracked lines yet)")
		return
	}
	fmt.Fprintf(w, "%-4s %-12s %10s %10s %9s %8s %-8s %-4s %4s  %s\n",
		"#", "LINE", "INVAL", "ACCESS", "WRITES", "RECORDED", "WINDOW", "FLAG", "VIRT", "WORD OWNERS")
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
		flags := "-"
		if ln.ReportWorthy {
			flags = "R"
		}
		fmt.Fprintf(w, "%-4d %#-12x %10d %10d %9d %8d %-8s %-4s %4d  %s\n",
			i+1, ln.Addr, ln.Invalidations, ln.Accesses, ln.Writes, ln.Recorded,
			window, flags, len(ln.Virtual), Heatmap(*ln))
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
	// Width clips rendered lines (0: unlimited); see RenderOptions.Width.
	Width int
	// Footer is printed under each frame in live mode.
	Footer string
	// Keys delivers keystrokes in live mode (nil: timer only). 'q', 'Q',
	// and ^C quit; other keys go to OnKey.
	Keys <-chan byte
	// OnKey handles non-quit keystrokes against the last frame, returning a
	// one-shot status line rendered under the next frame.
	OnKey func(k byte, last *diag.HotLinesResponse) (status string)
}

// Loop runs predtop's poll/render cycle until quit. It returns an error only when
// the first poll fails (bad address / server not up); a server that goes
// away mid-session ends the loop cleanly after two confirming failures.
func Loop(c *Client, opts LoopOptions) error {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	var last *diag.HotLinesResponse
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
			RenderWith(opts.Out, resp, RenderOptions{Width: opts.Width})
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

package fleet

import (
	"bytes"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"

	"predator/internal/obs/spans"
	"predator/internal/resilience/httpguard"
)

// The trace waterfall: server-rendered HTML with inline SVG, zero external
// assets (no JavaScript, no CDN, nothing to fetch) so it works inside
// air-gapped CI networks and curl | browser alike.

// dashStyle is the whole stylesheet, inlined into the page.
const dashStyle = `
body { font: 14px/1.5 monospace; background: #0e1116; color: #d7dde4; margin: 2em; }
h1, h2 { font-weight: normal; color: #fff; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { padding: 2px 10px; border-bottom: 1px solid #2a3038; text-align: left; }
th { color: #8b949e; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card { border: 1px solid #2a3038; border-radius: 6px; padding: 8px 12px; }
.card .t { color: #8b949e; }
.card .v { font-size: 18px; color: #fff; }
.muted { color: #8b949e; }
`

// Waterfall layout constants: row height and label gutter in SVG units.
const (
	wfRowH   = 22
	wfGutter = 260
	wfWidth  = 900
	wfMax    = 200 // rows rendered before the view truncates
)

// wfPalette colors waterfall bars by phase family (the prefix before the
// first dot), so every predict.search bar reads the same at a glance.
var wfPalette = map[string]string{
	"harness": "#2b6cb0",
	"eval":    "#6cb6ff",
	"elide":   "#8957e5",
	"sched":   "#8b949e",
	"predict": "#d29922",
	"report":  "#3fb950",
	"replay":  "#f0883e",
}

// handleDashTrace renders /dash/{project}/trace/{id} ({id} a trace ID or run
// ID): the span waterfall — one bar per span positioned on the run's
// monotonic timeline, nested depth-first with children indented under
// parents in logical-clock order, and each span's attribute counters (the
// overhead attribution) in the label column.
func (s *Server) handleDashTrace(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	project, id := r.PathValue("project"), r.PathValue("id")
	sp, err := s.store.TraceSpans(tenant, project, id)
	if err != nil {
		return "", httpguard.Status(http.StatusNotFound, "trace "+id+" not found in project "+project)
	}
	fmt.Fprintf(buf, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>predfleet — trace %s</title><style>%s</style></head><body>\n",
		html.EscapeString(sp.TraceID), dashStyle)
	fmt.Fprintf(buf, "<h1>predfleet / %s / trace</h1>\n", html.EscapeString(project))
	fmt.Fprintf(buf, "<div class=cards><div class=card><div class=t>trace</div><div class=v>%s</div></div>"+
		"<div class=card><div class=t>run</div><div class=v>%s</div></div>"+
		"<div class=card><div class=t>agent</div><div class=v>%s</div></div>"+
		"<div class=card><div class=t>spans</div><div class=v>%d</div></div></div>\n",
		html.EscapeString(sp.TraceID), html.EscapeString(sp.Run),
		html.EscapeString(sp.Agent), len(sp.Spans))
	wfRender(buf, sp.Spans)
	fmt.Fprintln(buf, "</body></html>")
	return "text/html; charset=utf-8", nil
}

// wfRow is one laid-out waterfall row.
type wfRow struct {
	d     *spans.Data
	depth int
}

// wfRender lays out and draws the waterfall SVG.
func wfRender(buf *bytes.Buffer, data []spans.Data) {
	if len(data) == 0 {
		fmt.Fprintln(buf, "<p class=muted>trace has no spans</p>")
		return
	}
	// Build the tree: children grouped by parent, ordered by start tick (the
	// wire order already is, but re-sorting keeps damaged uploads renderable).
	children := map[string][]*spans.Data{}
	byID := map[string]bool{}
	for i := range data {
		byID[data[i].SpanID] = true
	}
	var roots []*spans.Data
	for i := range data {
		d := &data[i]
		if d.Parent != "" && byID[d.Parent] {
			children[d.Parent] = append(children[d.Parent], d)
		} else {
			roots = append(roots, d)
		}
	}
	less := func(a, b *spans.Data) bool {
		if a.StartTick != b.StartTick {
			return a.StartTick < b.StartTick
		}
		return a.SpanID < b.SpanID
	}
	sort.Slice(roots, func(i, j int) bool { return less(roots[i], roots[j]) })
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return less(kids[i], kids[j]) })
	}
	var rows []wfRow
	var walk func(d *spans.Data, depth int)
	walk = func(d *spans.Data, depth int) {
		rows = append(rows, wfRow{d: d, depth: depth})
		for _, c := range children[d.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, rt := range roots {
		walk(rt, 0)
	}
	truncated := 0
	if len(rows) > wfMax {
		truncated = len(rows) - wfMax
		rows = rows[:wfMax]
	}
	// Timeline bounds over the rendered rows.
	t0, t1 := rows[0].d.StartMonoNano, rows[0].d.EndMonoNano
	for _, rw := range rows {
		if rw.d.StartMonoNano < t0 {
			t0 = rw.d.StartMonoNano
		}
		if rw.d.EndMonoNano > t1 {
			t1 = rw.d.EndMonoNano
		}
	}
	span := float64(t1 - t0)
	if span <= 0 {
		span = 1
	}
	laneW := float64(wfWidth - wfGutter)
	x := func(ns int64) float64 { return float64(wfGutter) + float64(ns-t0)/span*laneW }
	h := len(rows)*wfRowH + 8
	fmt.Fprintln(buf, "<h2>waterfall</h2>")
	fmt.Fprintf(buf, `<svg width="%d" height="%d" viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg" font-family="monospace" font-size="12">`+"\n",
		wfWidth, h, wfWidth, h)
	for i, rw := range rows {
		d := rw.d
		y := float64(i*wfRowH + 4)
		color, ok := wfPalette[wfFamily(d.Name)]
		if !ok {
			color = "#6e7681"
		}
		bx0, bx1 := x(d.StartMonoNano), x(d.EndMonoNano)
		if bx1-bx0 < 2 {
			bx1 = bx0 + 2 // a zero-width bar still has to be visible
		}
		fmt.Fprintf(buf, `<rect x="%.1f" y="%.1f" width="%.1f" height="%d" rx="2" fill="%s"><title>%s</title></rect>`+"\n",
			bx0, y, bx1-bx0, wfRowH-8, color, html.EscapeString(wfTitle(d)))
		label := strings.Repeat(" ", rw.depth*2) + d.Name
		fmt.Fprintf(buf, `<text x="4" y="%.1f" fill="#d7dde4">%s</text>`+"\n",
			y+float64(wfRowH)/2, html.EscapeString(label))
		fmt.Fprintf(buf, `<text x="%.1f" y="%.1f" fill="#8b949e">%s</text>`+"\n",
			bx1+4, y+float64(wfRowH)/2, html.EscapeString(dashDuration(d.Duration().Nanoseconds())))
	}
	fmt.Fprintln(buf, "</svg>")
	if truncated > 0 {
		fmt.Fprintf(buf, "<p class=muted>%d more spans not shown</p>\n", truncated)
	}
	// Attribute table: the per-span overhead attribution counters.
	fmt.Fprintln(buf, "<h2>span attributes</h2>")
	fmt.Fprintln(buf, "<table><tr><th>span</th><th>labels</th><th>counters</th><th>duration</th></tr>")
	for _, rw := range rows {
		d := rw.d
		fmt.Fprintf(buf, "<tr><td>%s%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			strings.Repeat(" ", rw.depth*2), html.EscapeString(d.Name),
			html.EscapeString(wfKVString(d.Labels)), html.EscapeString(wfCounterString(d.Attrs)),
			dashDuration(d.Duration().Nanoseconds()))
	}
	fmt.Fprintln(buf, "</table>")
}

// wfFamily extracts the span name's phase family ("predict.search" → "predict").
func wfFamily(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// wfTitle renders a bar's hover tooltip.
func wfTitle(d *spans.Data) string {
	parts := []string{d.Name, dashDuration(d.Duration().Nanoseconds())}
	if s := wfKVString(d.Labels); s != "" {
		parts = append(parts, s)
	}
	if s := wfCounterString(d.Attrs); s != "" {
		parts = append(parts, s)
	}
	return strings.Join(parts, " | ")
}

// wfKVString renders string labels "k=v" sorted by key.
func wfKVString(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+m[k])
	}
	return strings.Join(parts, " ")
}

// wfCounterString renders counter attrs "k=v" sorted by key.
func wfCounterString(m map[string]uint64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// dashDuration renders nanoseconds human-readably.
func dashDuration(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

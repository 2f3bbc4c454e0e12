// Command predlint runs PREDATOR's static false-sharing analyzer suite
// (internal/staticfs) over Go packages: padcheck (concurrently-written
// struct fields sharing a cache line), sharedindex (the paper's Figure 6
// per-worker slot pattern) and alignguard (placement-sensitive element
// sizes, §3). Each diagnostic carries a verified padding fix.
//
//	predlint ./...                           # lint a module
//	predlint -json ./... > findings.json     # machine-readable output
//	predlint -fix ./...                      # apply the verified padding fixes
//	predlint -report run.json ./...          # cross-check against a runtime report
//	go vet -vettool=$(which predlint) ./...  # as a vet tool
//
// With -report, findings confirmed by the runtime report (matching
// allocation callsite file or object label) are marked "confirmed at
// runtime"; the rest are listed as never exercised, and runtime problems
// with no static counterpart are summarized — the static/dynamic
// reconciliation the paper performs when comparing predicted and observed
// false sharing.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"predator/internal/elide"
	"predator/internal/obs"
	"predator/internal/report"
	"predator/internal/staticfs"
	"predator/internal/staticfs/load"
)

// saveManifest sorts the collected elision entries into a stable order and
// writes the versioned manifest. The proofs depend only on the analyzed
// source and the line size, so the manifest names its writer without a
// build version: regenerating a committed manifest from unchanged source
// reproduces it byte for byte, whichever toolchain runs predlint.
func saveManifest(path string, cfg staticfs.Config, entries []elide.Entry) error {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Callsite != b.Callsite {
			return a.Callsite < b.Callsite
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Decl != b.Decl {
			return a.Decl < b.Decl
		}
		return a.Subject < b.Subject
	})
	lineSize := cfg.LineSize
	if lineSize == 0 {
		lineSize = staticfs.DefaultLineSize
	}
	m := &elide.Manifest{
		Version:  elide.Version,
		LineSize: lineSize,
		Tool:     "predlint",
		Entries:  entries,
	}
	if m.Entries == nil {
		m.Entries = []elide.Entry{}
	}
	return m.Save(path)
}

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit findings as JSON")
		fix        = flag.Bool("fix", false, "apply the suggested fixes to the source files")
		reportPath = flag.String("report", "", "runtime JSON report to cross-check findings against")
		lineSize   = flag.Uint64("line", staticfs.DefaultLineSize, "assumed cache line size in bytes")
		elideOut   = flag.String("elide-out", "", "write an elision manifest of provably-safe accesses to this file")
		version    = flag.Bool("version", false, "print build version and exit")
		vetV       = flag.String("V", "", "print version for go vet's tool handshake (-V=full)")
		vetFlags   = flag.Bool("flags", false, "print flag schema for go vet's tool handshake")
	)
	flag.Parse()

	switch {
	case *version:
		fmt.Println("predlint " + obs.GetBuildInfo().String())
		return
	case *vetV != "":
		// go vet runs `tool -V=full` and folds the output into build IDs.
		fmt.Printf("predlint version %s\n", obs.GetBuildInfo().String())
		return
	case *vetFlags:
		// go vet runs `tool -flags` to learn which flags it may forward.
		fmt.Println(vetFlagSchema())
		return
	}

	// go vet invokes the tool with a single *.cfg argument per package.
	if args := flag.Args(); len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVet(args[0], staticfs.Config{LineSize: *lineSize}, *elideOut))
	}

	os.Exit(runStandalone(flag.Args(), *jsonOut, *fix, *reportPath, *lineSize, *elideOut))
}

// runStandalone is the ordinary CLI path: load patterns, run the suite,
// render text or JSON, cross-check when asked.
func runStandalone(patterns []string, jsonOut, fix bool, reportPath string, lineSize uint64, elideOut string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := staticfs.Config{LineSize: lineSize}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "predlint: %v\n", err)
		return 2
	}
	var entries []elide.Entry
	if elideOut != "" {
		cfg.ElideSink = func(e elide.Entry) { entries = append(entries, e) }
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predlint: %v\n", err)
		return 2
	}
	findings, err := staticfs.RunAll(pkgs, staticfs.Analyzers(cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "predlint: %v\n", err)
		return 2
	}
	if elideOut != "" {
		if err := saveManifest(elideOut, cfg, entries); err != nil {
			fmt.Fprintf(os.Stderr, "predlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "predlint: wrote %d elision entries (%d bindable) to %s\n",
			len(entries), (&elide.Manifest{Entries: entries}).Bindable(), elideOut)
	}

	var sum *staticfs.CrossSummary
	if reportPath != "" {
		rep, err := report.LoadJSON(reportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predlint: %v\n", err)
			return 2
		}
		s := staticfs.CrossCheck(findings, rep)
		sum = &s
	}

	if jsonOut {
		writeJSON(os.Stdout, lineSize, findings, sum)
	} else {
		writeText(os.Stdout, findings, sum)
	}
	if fix {
		n, err := applyFixes(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predlint: applying fixes: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "predlint: applied %d fixes\n", n)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// applyFixes applies the first suggested fix of every finding to the source
// files on disk. Edits are grouped per file and applied back-to-front so
// earlier insertions do not shift later offsets; all edits were resolved
// against the same on-disk contents by the load step.
func applyFixes(findings []staticfs.Finding) (int, error) {
	byFile := map[string][]staticfs.Edit{}
	applied := 0
	for _, f := range findings {
		if len(f.Fixes) == 0 {
			continue
		}
		applied++
		for _, e := range f.Fixes[0].Edits {
			byFile[e.File] = append(byFile[e.File], e)
		}
	}
	for file, edits := range byFile {
		src, err := os.ReadFile(file)
		if err != nil {
			return applied, err
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].Offset > edits[j].Offset })
		for _, e := range edits {
			if e.Offset < 0 || e.End < e.Offset || e.End > len(src) {
				return applied, fmt.Errorf("%s: edit range [%d,%d) out of bounds", file, e.Offset, e.End)
			}
			src = append(src[:e.Offset], append([]byte(e.NewText), src[e.End:]...)...)
		}
		if err := os.WriteFile(file, src, 0o644); err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// jsonOutput is predlint's stable machine-readable schema.
type jsonOutput struct {
	LineSize uint64        `json:"line_size"`
	Findings []jsonFinding `json:"findings"`
	Summary  *jsonSummary  `json:"cross_check,omitempty"`
}

type jsonFinding struct {
	Analyzer  string         `json:"analyzer"`
	Package   string         `json:"package"`
	Position  string         `json:"position"`
	Subject   string         `json:"subject"`
	Message   string         `json:"message"`
	Fixes     []staticfs.Fix `json:"fixes,omitempty"`
	Confirmed bool           `json:"confirmed_at_runtime,omitempty"`
	Evidence  string         `json:"runtime_evidence,omitempty"`
}

type jsonSummary struct {
	Confirmed   int      `json:"confirmed"`
	Unexercised int      `json:"unexercised"`
	RuntimeOnly []string `json:"runtime_only,omitempty"`
}

func writeJSON(w *os.File, lineSize uint64, findings []staticfs.Finding, sum *staticfs.CrossSummary) {
	out := jsonOutput{LineSize: lineSize, Findings: []jsonFinding{}}
	for i, f := range findings {
		jf := jsonFinding{
			Analyzer: f.Analyzer,
			Package:  f.Package,
			Position: f.Pos.String(),
			Subject:  f.Subject,
			Message:  f.Message,
			Fixes:    f.Fixes,
		}
		if sum != nil {
			jf.Confirmed = sum.Results[i].Confirmed
			jf.Evidence = sum.Results[i].Evidence
		}
		out.Findings = append(out.Findings, jf)
	}
	if sum != nil {
		out.Summary = &jsonSummary{
			Confirmed:   sum.Confirmed,
			Unexercised: sum.Unexercised,
			RuntimeOnly: sum.RuntimeOnly,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

func writeText(w *os.File, findings []staticfs.Finding, sum *staticfs.CrossSummary) {
	for i, f := range findings {
		fmt.Fprintf(w, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
		for _, fix := range f.Fixes {
			fmt.Fprintf(w, "\tfix: %s\n", fix.Message)
		}
		if sum != nil {
			r := sum.Results[i]
			if r.Confirmed {
				fmt.Fprintf(w, "\tconfirmed at runtime: %s\n", r.Evidence)
			} else {
				fmt.Fprintf(w, "\tnever exercised at runtime\n")
			}
		}
	}
	if sum != nil {
		fmt.Fprintf(w, "cross-check: %d confirmed at runtime, %d never exercised\n",
			sum.Confirmed, sum.Unexercised)
		for _, s := range sum.RuntimeOnly {
			fmt.Fprintf(w, "runtime-only (no static candidate): %s\n", s)
		}
	}
}

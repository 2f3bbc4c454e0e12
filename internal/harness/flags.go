package harness

import (
	"flag"

	"predator/internal/core"
)

// RuntimeFlags declares the runtime-config flags predator and predreplay
// share on fs: the detector's thresholds, sampling and flight recorder
// depth. Parsing fs fills in the returned configuration; Prediction is left
// to the caller.
func RuntimeFlags(fs *flag.FlagSet) *core.Config {
	cfg := &core.Config{}
	fs.Uint64Var(&cfg.TrackingThreshold, "tracking-threshold", 50, "per-line writes before detailed tracking")
	fs.Uint64Var(&cfg.PredictionThreshold, "prediction-threshold", 100, "recorded writes before hot-pair search")
	fs.Uint64Var(&cfg.ReportThreshold, "report-threshold", 200, "minimum invalidations to report")
	fs.Uint64Var(&cfg.SampleWindow, "sample-window", 0, "sampling window (0 = record everything)")
	fs.Uint64Var(&cfg.SampleBurst, "sample-burst", 0, "recorded prefix of each sampling window")
	fs.IntVar(&cfg.FlightDepth, "flight-depth", 0, "flight recorder ring depth per tracked line (0 = default, -1 = disable)")
	return cfg
}

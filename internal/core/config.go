// Package core is Roadrunner itself: the framework façade that wires the
// Core Simulator (internal/sim) to the modules of the paper's Figure 2
// architecture — Data Preprocessing (internal/dataset), ML (internal/ml,
// internal/hw), Communication (internal/comm), vehicle spatial dynamics
// (internal/mobility, internal/roadnet), Learning Strategy Logic
// (internal/strategy) and metrics (internal/metrics) — and runs complete
// learning-workflow experiments over them.
package core

import (
	"fmt"
	"io"

	"roadrunner/internal/comm"
	"roadrunner/internal/dataset"
	"roadrunner/internal/faults"
	"roadrunner/internal/hw"
	"roadrunner/internal/ml"
	"roadrunner/internal/mobility"
	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
)

// Config fully describes an experiment apart from the learning strategy.
// A Config plus a seed determines a run byte-for-byte.
type Config struct {
	// Seed drives every random stream in the experiment.
	Seed uint64 `json:"seed"`
	// Horizon caps the simulated duration; zero means "until the mobility
	// traces end". Strategies usually stop themselves earlier.
	Horizon sim.Duration `json:"horizon_s,omitempty"`
	// TickInterval is the encounter-scan period of the core simulator.
	TickInterval sim.Duration `json:"tick_interval_s"`

	// TraceFile, when set, loads vehicle spatial dynamics from a CSV trace
	// file (the paper's "file of GPS traces" input) instead of generating
	// them from Grid and Fleet.
	TraceFile string `json:"trace_file,omitempty"`
	// Grid describes the synthetic road network (ignored with TraceFile).
	Grid roadnet.GridConfig `json:"grid"`
	// Fleet describes the synthetic fleet dynamics (ignored with
	// TraceFile).
	Fleet mobility.GenConfig `json:"fleet"`
	// RSUCount places this many road-side units at random intersections.
	RSUCount int `json:"rsu_count,omitempty"`

	// Comm models the V2C/V2X/wired channels.
	Comm comm.Params `json:"comm"`

	// Faults, when set, schedules deterministic fault injection — coverage
	// blackouts, RSU outages, V2X burst loss, bandwidth degradation, churn
	// storms, mid-flight link kills — on top of the nominal channel model.
	// A (config, seed, plan) triple fully determines a run, so faulted
	// runs keep the byte-identical reproducibility contract.
	Faults *faults.Plan `json:"faults,omitempty"`

	// Data describes the synthetic learning problem; Partition how it is
	// distributed over vehicles; TestSamples the server-side held-out set.
	Data        dataset.Config          `json:"data"`
	Partition   dataset.PartitionConfig `json:"partition"`
	TestSamples int                     `json:"test_samples"`

	// Model is the network architecture; Train the local-training
	// hyperparameters (the paper: 2 epochs of momentum-SGD).
	Model ml.Spec        `json:"model"`
	Train ml.TrainConfig `json:"train"`

	// Trace enables the simulated-time span tracer (internal/trace):
	// round/train/eval/transfer/encounter-exchange/fault-window spans
	// collected on the virtual clock and returned in Result.Trace. It is
	// result-invariant — tracing observes the run without perturbing any
	// random stream or recorded metric — so it is normalized away by
	// CanonicalConfigJSON. Disabled tracing costs one nil check per
	// emission point and zero allocations.
	Trace bool `json:"trace,omitempty"`

	// ChannelRecord enables the channel-trace recorder: every transfer's
	// (distance, size, load, duration, outcome) tuple is collected in
	// Result.ChannelLog, the raw material the DRIVE-style oracle pipeline
	// (internal/channel.Fit, cmd/chanfit) fits its indicator tables from.
	// Like Trace it is result-invariant — the recorder observes transfers
	// without consuming randomness — and is normalized away by
	// CanonicalConfigJSON.
	ChannelRecord bool `json:"channel_record,omitempty"`

	// OBU, ServerHW, and RSUHW are the hardware-unit profiles.
	OBU      hw.Profile `json:"obu"`
	ServerHW hw.Profile `json:"server_hw"`
	RSUHW    hw.Profile `json:"rsu_hw"`

	// LogWriter receives strategy diagnostics; nil discards them.
	LogWriter io.Writer `json:"-"`
}

// DefaultConfig reproduces the paper's §5.2 experiment environment: a
// Gothenburg-scale grid, a 120-vehicle fleet with ignition churn, 4G-class
// V2C with 200 m V2X, a 10-class image task with 80 highly skewed samples
// per vehicle, and the 2-conv/3-FC CNN trained with 2 epochs of
// momentum-SGD on GPU-class OBU stand-ins.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		TickInterval: 5,
		Grid:         roadnet.DefaultGridConfig(),
		Fleet:        mobility.DefaultGenConfig(),
		Comm:         comm.DefaultParams(),
		Data:         dataset.DefaultConfig(),
		Partition:    dataset.DefaultPartitionConfig(),
		TestSamples:  500,
		Model:        ml.CNNSpec(16, 16, 3, 6, 12, 3, 32, 16, 10),
		Train:        ml.DefaultTrainConfig(),
		OBU:          hw.OBUProfile(),
		ServerHW:     hw.ServerProfile(),
		RSUHW:        hw.RSUProfile(),
	}
}

// SmallConfig is a laptop-scale variant for tests and quick iteration:
// a small fleet on a compact grid learning a low-dimensional MLP task.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Grid = roadnet.GridConfig{Rows: 8, Cols: 8, Spacing: 300, StreetSpeed: 10, Irregularity: 0.1, Jitter: 20}
	cfg.Fleet = mobility.GenConfig{
		Vehicles:          24,
		Horizon:           2 * sim.Hour,
		DwellMin:          30,
		DwellMax:          240,
		OffWhenParkedProb: 0.4,
		SpeedFactorMin:    0.8,
		SpeedFactorMax:    1.0,
		InitialDwellMax:   60,
	}
	cfg.Data = dataset.Config{Classes: 6, H: 6, W: 6, C: 1, NoiseStd: 0.5, MaxShift: 1, Components: 3}
	cfg.Partition = dataset.PartitionConfig{Scheme: dataset.SchemeShards, PerAgent: 30, ShardsPerAgent: 2}
	cfg.TestSamples = 180
	cfg.Model = ml.MLPSpec(cfg.Data.Dim(), []int{24}, cfg.Data.Classes)
	cfg.Train = ml.TrainConfig{Epochs: 2, BatchSize: 10, LR: 0.05, Momentum: 0.9}
	return cfg
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TickInterval <= 0 {
		return fmt.Errorf("core: non-positive tick interval %v", c.TickInterval)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("core: negative horizon %v", c.Horizon)
	}
	if c.TraceFile == "" {
		if err := c.Grid.Validate(); err != nil {
			return fmt.Errorf("core: grid: %w", err)
		}
		if err := c.Fleet.Validate(); err != nil {
			return fmt.Errorf("core: fleet: %w", err)
		}
	}
	if c.RSUCount < 0 {
		return fmt.Errorf("core: negative RSU count %d", c.RSUCount)
	}
	if err := c.Comm.Validate(); err != nil {
		return fmt.Errorf("core: comm: %w", err)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := c.Data.Validate(); err != nil {
		return fmt.Errorf("core: data: %w", err)
	}
	if err := c.Partition.Validate(); err != nil {
		return fmt.Errorf("core: partition: %w", err)
	}
	if c.TestSamples <= 0 {
		return fmt.Errorf("core: non-positive test sample count %d", c.TestSamples)
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("core: model: %w", err)
	}
	if c.Model.InputDim() != c.Data.Dim() {
		return fmt.Errorf("core: model input dim %d != data dim %d", c.Model.InputDim(), c.Data.Dim())
	}
	out, err := c.Model.OutputDim()
	if err != nil {
		return fmt.Errorf("core: model: %w", err)
	}
	if out != c.Data.Classes {
		return fmt.Errorf("core: model output dim %d != class count %d", out, c.Data.Classes)
	}
	if err := c.Train.Validate(); err != nil {
		return fmt.Errorf("core: train: %w", err)
	}
	if err := c.OBU.Validate(); err != nil {
		return fmt.Errorf("core: obu: %w", err)
	}
	if err := c.ServerHW.Validate(); err != nil {
		return fmt.Errorf("core: server hw: %w", err)
	}
	if c.RSUCount > 0 {
		if err := c.RSUHW.Validate(); err != nil {
			return fmt.Errorf("core: rsu hw: %w", err)
		}
	}
	return nil
}

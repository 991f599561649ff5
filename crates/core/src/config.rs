//! Network and run configuration.

use asynoc_kernel::{Duration, SchedulerKind};
use asynoc_nodes::TimingModel;
use asynoc_stats::Phases;
use asynoc_topology::{Architecture, MotSize, NodePlan, SpecMap, SpeculationMap, TopologyError};
use asynoc_traffic::Benchmark;

use crate::error::SimError;

/// Default flits per packet (the paper fixes packets at 5 flits).
pub const DEFAULT_FLITS_PER_PACKET: u8 = 5;

/// Static description of one network to simulate.
///
/// # Examples
///
/// ```
/// use asynoc::{Architecture, MotSize, NetworkConfig};
///
/// let config = NetworkConfig::new(MotSize::new(16)?, Architecture::OptAllSpeculative)
///     .with_seed(7)
///     .with_flits_per_packet(5);
/// assert_eq!(config.size().n(), 16);
/// # Ok::<(), asynoc::SimError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    size: MotSize,
    architecture: Architecture,
    plan: NodePlan,
    timing: TimingModel,
    flits_per_packet: u8,
    seed: u64,
}

impl NetworkConfig {
    /// Creates a configuration with the calibrated timing model, 5-flit
    /// packets, and seed 0.
    #[must_use]
    pub fn new(size: MotSize, architecture: Architecture) -> Self {
        NetworkConfig {
            size,
            architecture,
            plan: NodePlan::for_architecture(architecture, size),
            timing: TimingModel::calibrated(),
            flits_per_packet: DEFAULT_FLITS_PER_PACKET,
            seed: 0,
        }
    }

    /// Replaces the per-level node-kind plan with a custom speculation
    /// placement — the wider design space the paper sketches in Fig 3(d).
    /// Speculative levels get optimized/basic speculative nodes per
    /// `optimized`; the reported [`architecture`](Self::architecture) label
    /// is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the map was built for a different network size.
    #[must_use]
    pub fn with_speculation_map(mut self, map: &SpeculationMap, optimized: bool) -> Self {
        assert_eq!(
            map.size(),
            self.size,
            "speculation map size {} does not match network size {}",
            map.size(),
            self.size
        );
        self.plan = NodePlan::from_speculation(map, optimized);
        self
    }

    /// Replaces the node plan with a validated speculation placement — the
    /// first-class form behind the CLI's `--spec-map`. A [`SpecMap`] can
    /// express every [`Architecture`] preset (and is then bit-identical to
    /// the preset run) as well as arbitrary per-level/per-node placements.
    /// When the map equals a preset the
    /// [`architecture`](Self::architecture) label is updated to match;
    /// otherwise the label of [`NetworkConfig::new`] is kept.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Topology`] if the map was built for a different
    /// network size.
    pub fn with_spec_map(mut self, map: &SpecMap) -> Result<Self, SimError> {
        if map.size() != self.size {
            return Err(SimError::Topology(TopologyError::LevelCountMismatch {
                provided: map.size().levels() as usize,
                required: self.size.levels() as usize,
            }));
        }
        if let Some(arch) = map.label() {
            self.architecture = arch;
        }
        self.plan = map.node_plan();
        Ok(self)
    }

    /// The paper's evaluated 8×8 configuration.
    ///
    /// # Panics
    ///
    /// Never panics (8 is always a valid size).
    #[must_use]
    pub fn eight_by_eight(architecture: Architecture) -> Self {
        NetworkConfig::new(MotSize::new(8).expect("8 is a valid size"), architecture)
    }

    /// Replaces the RNG seed (traffic streams are derived from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the timing/energy parameter model (ablation studies).
    #[must_use]
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Replaces the packet length in flits.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    #[must_use]
    pub fn with_flits_per_packet(mut self, flits: u8) -> Self {
        assert!(flits > 0, "packets must have at least one flit");
        self.flits_per_packet = flits;
        self
    }

    /// The network size.
    #[must_use]
    pub fn size(&self) -> MotSize {
        self.size
    }

    /// The architecture label this configuration started from (custom
    /// speculation maps keep the label of [`NetworkConfig::new`]).
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// The per-level node-kind plan actually simulated.
    #[must_use]
    pub fn plan(&self) -> &NodePlan {
        &self.plan
    }

    /// The timing/energy model.
    #[must_use]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Flits per packet.
    #[must_use]
    pub fn flits_per_packet(&self) -> u8 {
        self.flits_per_packet
    }

    /// The RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// One simulation run: benchmark, offered load, and measurement schedule.
///
/// # Examples
///
/// ```
/// use asynoc::{Benchmark, RunConfig};
///
/// let run = RunConfig::new(Benchmark::Shuffle, 0.5)?;
/// assert_eq!(run.rate_gfs(), 0.5);
/// # Ok::<(), asynoc::SimError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    benchmark: Benchmark,
    rate_gfs: f64,
    phases: Phases,
    drain: bool,
    scheduler: SchedulerKind,
    shards: usize,
    profile: bool,
    progress: bool,
    latency_cap: Option<usize>,
}

impl RunConfig {
    /// Creates a run at `rate_gfs` flits/ns per source with the paper's
    /// standard measurement schedule (doubled for `Multicast_static`) and
    /// draining enabled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRate`] unless the rate is positive and
    /// finite.
    pub fn new(benchmark: Benchmark, rate_gfs: f64) -> Result<Self, SimError> {
        if !(rate_gfs.is_finite() && rate_gfs > 0.0) {
            return Err(SimError::InvalidRate { rate: rate_gfs });
        }
        Ok(RunConfig {
            benchmark,
            rate_gfs,
            phases: Phases::paper_standard(benchmark == Benchmark::MulticastStatic),
            drain: true,
            scheduler: SchedulerKind::default(),
            shards: 1,
            profile: false,
            progress: false,
            latency_cap: None,
        })
    }

    /// A short-window run for tests and examples (80 ns warmup, 800 ns
    /// measurement).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    #[must_use]
    pub fn quick(benchmark: Benchmark, rate_gfs: f64) -> Self {
        RunConfig::new(benchmark, rate_gfs)
            .expect("quick() requires a positive, finite rate")
            .with_phases(Phases::new(Duration::from_ns(80), Duration::from_ns(800)))
    }

    /// Replaces the measurement schedule.
    #[must_use]
    pub fn with_phases(mut self, phases: Phases) -> Self {
        self.phases = phases;
        self
    }

    /// Enables or disables the drain phase (saturation probes disable it:
    /// they only need acceptance ratios, not complete packet latencies).
    #[must_use]
    pub fn with_drain(mut self, drain: bool) -> Self {
        self.drain = drain;
        self
    }

    /// The benchmark to run.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Offered load, flits/ns per source.
    #[must_use]
    pub fn rate_gfs(&self) -> f64 {
        self.rate_gfs
    }

    /// The measurement schedule.
    #[must_use]
    pub fn phases(&self) -> Phases {
        self.phases
    }

    /// Whether the run drains in-flight measured packets after the window.
    #[must_use]
    pub fn drain(&self) -> bool {
        self.drain
    }

    /// Replaces the event-queue scheduler (results are bit-identical
    /// under either kind; this only affects run speed).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The event-queue scheduler this run uses.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Splits the run across `shards` conservative shards (threads).
    ///
    /// Results are bit-identical for every shard count (the sharded
    /// engine merges observable streams back into exact serial order);
    /// this only affects run speed on multi-core hosts. The network
    /// clamps the count to what its topology can support.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "a run needs at least one shard");
        self.shards = shards;
        self
    }

    /// How many shards execute the run (default 1: serial).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Enables runtime self-profiling: the engine fills
    /// [`RunReport::profile`](crate::RunReport::profile) with per-shard
    /// counters, histograms, and phase wall-clock splits. Simulation
    /// results are bit-identical with profiling on or off — only host-side
    /// metadata is collected.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Whether the run collects an engine profile (default off).
    #[must_use]
    pub fn profile(&self) -> bool {
        self.profile
    }

    /// Enables the stderr progress heartbeat (a single line refreshed a
    /// few times per second; suppressed when stderr is not a terminal).
    /// Like profiling, it never perturbs simulation results.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Whether the run prints a progress heartbeat (default off).
    #[must_use]
    pub fn progress(&self) -> bool {
        self.progress
    }

    /// Caps the engine's stored latency-sample reservoir (streaming
    /// runs set this so memory is bounded independent of run length).
    /// Count, mean, min, and max stay exact past the cap; percentiles
    /// degrade to the retained prefix. `None` (the default) stores
    /// every sample.
    #[must_use]
    pub fn with_latency_cap(mut self, cap: Option<usize>) -> Self {
        self.latency_cap = cap;
        self
    }

    /// The latency-sample reservoir cap (`None` = unbounded).
    #[must_use]
    pub fn latency_cap(&self) -> Option<usize> {
        self.latency_cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = NetworkConfig::eight_by_eight(Architecture::Baseline);
        assert_eq!(c.size().n(), 8);
        assert_eq!(c.flits_per_packet(), 5);
        assert_eq!(c.seed(), 0);
        assert_eq!(*c.timing(), TimingModel::calibrated());
    }

    #[test]
    fn builder_overrides() {
        let mut timing = TimingModel::calibrated();
        timing.wire_fj = 0.0;
        let c = NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative)
            .with_seed(9)
            .with_flits_per_packet(3)
            .with_timing(timing.clone());
        assert_eq!(c.seed(), 9);
        assert_eq!(c.flits_per_packet(), 3);
        assert_eq!(c.timing().wire_fj, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flits_rejected() {
        let _ = NetworkConfig::eight_by_eight(Architecture::Baseline).with_flits_per_packet(0);
    }

    #[test]
    fn custom_speculation_map_replaces_plan() {
        use asynoc_topology::FanoutKind;
        let size = MotSize::new(8).unwrap();
        let map = SpeculationMap::custom(size, vec![false, true, false]).unwrap();
        let config = NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative)
            .with_speculation_map(&map, true);
        assert_eq!(config.plan().kind(1), FanoutKind::OptSpeculative);
        assert_eq!(config.plan().address_bits(), 10);
        // The label is unchanged.
        assert_eq!(config.architecture(), Architecture::OptNonSpeculative);
    }

    #[test]
    #[should_panic(expected = "does not match network size")]
    fn speculation_map_size_mismatch_panics() {
        let map = SpeculationMap::hybrid(MotSize::new(16).unwrap());
        let _ = NetworkConfig::eight_by_eight(Architecture::OptNonSpeculative)
            .with_speculation_map(&map, true);
    }

    #[test]
    fn run_config_validates_rate() {
        assert!(matches!(
            RunConfig::new(Benchmark::Shuffle, 0.0),
            Err(SimError::InvalidRate { .. })
        ));
        assert!(matches!(
            RunConfig::new(Benchmark::Shuffle, f64::INFINITY),
            Err(SimError::InvalidRate { .. })
        ));
        assert!(RunConfig::new(Benchmark::Shuffle, 0.1).is_ok());
    }

    #[test]
    fn multicast_static_gets_doubled_phases() {
        let run = RunConfig::new(Benchmark::MulticastStatic, 0.2).unwrap();
        assert_eq!(run.phases(), Phases::paper_standard(true));
        let run = RunConfig::new(Benchmark::UniformRandom, 0.2).unwrap();
        assert_eq!(run.phases(), Phases::paper_standard(false));
    }

    #[test]
    fn scheduler_defaults_to_calendar_and_is_overridable() {
        let run = RunConfig::new(Benchmark::Shuffle, 0.5).unwrap();
        assert_eq!(run.scheduler(), SchedulerKind::Calendar);
        assert_eq!(
            run.with_scheduler(SchedulerKind::Heap).scheduler(),
            SchedulerKind::Heap
        );
    }

    #[test]
    fn quick_run_is_short_and_drains() {
        let run = RunConfig::quick(Benchmark::Hotspot, 0.1);
        assert!(run.phases().measure() < Phases::paper_standard(false).measure());
        assert!(run.drain());
        assert!(!run.with_drain(false).drain());
    }
}

//! The substrate seam: one dispatch point and one descriptor per fabric.
//!
//! `run`, `metrics` and `faults` simulate whichever fabric `--substrate`
//! names: the paper's Mesh-of-Trees (`mot`, the default), the plain 2D
//! mesh (`mesh`), or the credit-based VC mesh with in-network multicast
//! (`vcmesh`). [`dispatch`] is the only place that tells them apart: it
//! builds the chosen network once from the parsed options and hands it
//! to a [`Job`], a command body generic over [`Fabric`]. Everything after
//! that — observers, stream sink, trace meta, the metrics and faults
//! documents, the `run` text report, `--profile` rows — is one code
//! path; the per-substrate differences live in the three [`Fabric`]
//! implementations below.

use std::io::Write;

use asynoc::probe::EngineProfile;
use asynoc::{
    Benchmark, Duration, FanoutNodeId, MotNode, MotSize, Network, NodeKey, Observer, Phases,
    RunConfig, RunReport, SpecMap,
};
use asynoc_faults::{
    run_mesh_outcome_observed, run_mot_outcome_observed, run_vcmesh_outcome_observed, FaultDomain,
    FaultPlan, RunOutcome,
};
use asynoc_mesh::{MeshConfig, MeshNetwork, MeshReport, MeshSize};
use asynoc_power::PowerReport;
use asynoc_stats::throughput::ThroughputReport;
use asynoc_telemetry::trace::SiteFn;
use asynoc_telemetry::waste::CreatorFn;
use asynoc_telemetry::{JsonValue, LevelSpec, TimeSeries};
use asynoc_topology::FaninNodeId;
use asynoc_vcmesh::{VcMeshConfig, VcMeshNetwork, VcMeshReport};

use crate::args::{Command, CommonOptions, Substrate};
use crate::commands::{network_for, phases_for, placement_id, resolve_spec_map, CliError};
use crate::profile::ProfileWriter;

/// What one run simulates: the traffic and its measurement phases.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Load {
    pub(crate) benchmark: Benchmark,
    pub(crate) rate: f64,
    pub(crate) phases: Phases,
}

impl Load {
    /// `benchmark` at `rate` over the phases `common` selects.
    pub(crate) fn new(benchmark: Benchmark, rate: f64, common: &CommonOptions) -> Self {
        Load {
            benchmark,
            rate,
            phases: phases_for(benchmark, common),
        }
    }
}

/// The substrate-neutral slice of one run's report.
pub(crate) struct Summary<'a> {
    pub(crate) throughput: &'a ThroughputReport,
    /// The energy model's report (`None` on fabrics without one).
    pub(crate) power: Option<&'a PowerReport>,
    pub(crate) packets_measured: usize,
    pub(crate) packets_incomplete: usize,
    pub(crate) flits_throttled: u64,
    pub(crate) flits_delivered: u64,
    pub(crate) events_processed: u64,
    pub(crate) shards: usize,
    pub(crate) shard_events: &'a [u64],
    pub(crate) profile: Option<&'a EngineProfile>,
}

/// How a speculating fabric prices its waste: the energy constants, and
/// for each throttling node the node whose copy it dropped.
pub(crate) struct Speculation<N> {
    pub(crate) wire_fj: f64,
    pub(crate) drop_fj: f64,
    pub(crate) parent: CreatorFn<N>,
}

/// One simulated fabric, as the command bodies see it.
pub(crate) trait Fabric {
    /// The engine's node handle on this fabric.
    type Node: Copy + NodeKey + 'static;
    /// The fabric's own run report.
    type Report;
    /// The substrate tag every document and stream carries.
    const TAG: &'static str;

    /// The placement identity recorded as `"arch"` in every config
    /// section (`None` on fabrics without speculation placements).
    fn identity(&self) -> Option<&str> {
        None
    }

    /// Traffic endpoints (sources = destinations).
    fn endpoints(&self) -> usize;

    /// An empty time series grouping the nodes into busy-fraction
    /// levels (by default one `router` level over every endpoint).
    fn time_series(&self, bin: Duration) -> TimeSeries<Self::Node> {
        TimeSeries::single_level(bin, "router", self.endpoints())
    }

    /// Site labels for trace records, waste rows and watchpoints.
    fn label(&self) -> SiteFn<Self::Node>;

    /// Waste pricing, on fabrics that speculate.
    fn speculation(&self) -> Option<Speculation<Self::Node>> {
        None
    }

    /// One run of `load`, observed by `observers`.
    fn simulate(
        &self,
        load: &Load,
        observers: &mut [&mut dyn Observer<Self::Node>],
    ) -> Result<Self::Report, CliError>;

    /// The legal fault-injection targets.
    fn domain(&self) -> FaultDomain;

    /// One run distilled for the fault oracle (faulted iff `plan` has
    /// entries), with `observers` after the oracle's own.
    fn outcome(
        &self,
        load: &Load,
        plan: Option<&FaultPlan>,
        observers: &mut [&mut dyn Observer<Self::Node>],
    ) -> Result<RunOutcome, CliError>;

    /// The substrate-neutral view of a report.
    fn summary(report: &Self::Report) -> Summary<'_>;

    /// Report sections only this fabric has, appended after `counters`.
    fn sections(&self, _report: &Self::Report) -> Vec<(String, JsonValue)> {
        Vec::new()
    }

    /// The `run` command's human-readable report (percentiles sort the
    /// latency samples, hence `&mut`).
    fn write_text(
        &self,
        load: &Load,
        report: &mut Self::Report,
        out: &mut dyn Write,
    ) -> Result<(), CliError>;
}

/// A command body generic over the fabric it simulates.
pub(crate) trait Job {
    /// The command name a `--profile` document records.
    const NAME: &'static str;

    /// Runs the command on `fabric`, adding its runs to `profiler`
    /// (present under `--profile`).
    fn on<F: Fabric>(self, fabric: &F, profiler: Option<ProfileWriter>) -> Result<(), CliError>;
}

/// The one substrate dispatch point: starts the `--profile` clock,
/// builds the network `command`'s `--substrate` selects (with its
/// placement or multicast scheme) from the shared options, and runs
/// `job` on it.
pub(crate) fn dispatch<J: Job>(command: &Command, job: J) -> Result<(), CliError> {
    let (Command::Run {
        arch,
        spec_map,
        substrate,
        mcast,
        common,
        ..
    }
    | Command::Metrics {
        arch,
        spec_map,
        substrate,
        mcast,
        common,
        ..
    }
    | Command::Faults {
        arch,
        spec_map,
        substrate,
        mcast,
        common,
        ..
    }) = command
    else {
        unreachable!("only run, metrics and faults simulate a substrate");
    };
    let profiler = ProfileWriter::when(common.profile.as_ref(), J::NAME);
    let side = || MeshSize::new(common.size, common.size).map_err(invalid);
    match substrate {
        Substrate::Mot => {
            let map = resolve_spec_map(*arch, spec_map.as_ref(), common)?;
            job.on(&Mot::new(&map, common)?, profiler)
        }
        Substrate::Mesh => {
            let config = MeshConfig::new(side()?)
                .with_seed(common.seed)
                .with_flits_per_packet(common.flits)
                .with_shards(common.shards)
                .with_profile(common.profile.is_some())
                .with_progress(common.progress);
            job.on(&MeshNetwork::new(config).map_err(invalid)?, profiler)
        }
        Substrate::Vcmesh => {
            let config = VcMeshConfig::new(side()?)
                .with_seed(common.seed)
                .with_flits_per_packet(common.flits)
                .with_mcast(*mcast)
                .with_shards(common.shards)
                .with_profile(common.profile.is_some())
                .with_progress(common.progress);
            job.on(&VcMeshNetwork::new(config).map_err(invalid)?, profiler)
        }
    }
}

fn invalid(e: impl std::fmt::Display) -> CliError {
    CliError::Invalid(e.to_string())
}

/// The paper's Mesh-of-Trees under one resolved speculation placement.
/// It takes the execution knobs per run (the meshes keep them in their
/// configs), so they are captured here at dispatch.
pub(crate) struct Mot {
    net: Network,
    identity: String,
    shards: usize,
    profile: bool,
    progress: bool,
}

impl Mot {
    fn new(map: &SpecMap, common: &CommonOptions) -> Result<Self, CliError> {
        Ok(Mot {
            net: network_for(map, common)?,
            identity: placement_id(map),
            shards: common.shards,
            profile: common.profile.is_some(),
            progress: common.progress,
        })
    }

    fn size(&self) -> MotSize {
        self.net.config().size()
    }

    fn run_config(&self, load: &Load) -> Result<RunConfig, CliError> {
        Ok(RunConfig::new(load.benchmark, load.rate)?
            .with_phases(load.phases)
            .with_shards(self.shards)
            .with_profile(self.profile)
            .with_progress(self.progress))
    }
}

/// The per-level busy-fraction groups of a MoT: fanout levels from the
/// root down, then fanin levels from the leaves toward each sink.
fn mot_levels(size: MotSize) -> Vec<LevelSpec> {
    let n = size.n();
    let levels = size.levels() as usize;
    let group = |kind: &'static str| {
        (0..levels).map(move |level| LevelSpec {
            label: format!("{kind}-L{level}"),
            nodes: n << level,
        })
    };
    group("fanout").chain(group("fanin")).collect()
}

impl Fabric for Mot {
    type Node = MotNode;
    type Report = RunReport;
    const TAG: &'static str = "mot";

    fn identity(&self) -> Option<&str> {
        Some(&self.identity)
    }

    fn endpoints(&self) -> usize {
        self.size().n()
    }

    fn time_series(&self, bin: Duration) -> TimeSeries<MotNode> {
        let size = self.size();
        let levels = size.levels() as usize;
        TimeSeries::new(
            bin,
            mot_levels(size),
            Box::new(move |node| match node {
                MotNode::Fanout(flat) => {
                    Some(FanoutNodeId::from_flat_index(size, flat).level as usize)
                }
                MotNode::Fanin(flat) => {
                    Some(levels + FaninNodeId::from_flat_index(size, flat).level as usize)
                }
            }),
        )
    }

    fn label(&self) -> SiteFn<MotNode> {
        let size = self.size();
        Box::new(move |node| match node {
            MotNode::Fanout(flat) => FanoutNodeId::from_flat_index(size, flat).to_string(),
            MotNode::Fanin(flat) => FaninNodeId::from_flat_index(size, flat).to_string(),
        })
    }

    fn speculation(&self) -> Option<Speculation<MotNode>> {
        let size = self.size();
        let timing = self.net.config().timing();
        Some(Speculation {
            wire_fj: timing.wire_fj,
            drop_fj: timing.drop_fj,
            // A dropped copy was created by the throttler's fanout parent;
            // a root throttle (level 0) is attributed to the node itself.
            parent: Box::new(move |node| match node {
                MotNode::Fanout(flat) => {
                    let id = FanoutNodeId::from_flat_index(size, flat);
                    (id.level > 0).then(|| {
                        let parent = FanoutNodeId {
                            tree: id.tree,
                            level: id.level - 1,
                            index: id.index / 2,
                        };
                        MotNode::Fanout(parent.flat_index(size))
                    })
                }
                MotNode::Fanin(_) => None,
            }),
        })
    }

    fn simulate(
        &self,
        load: &Load,
        observers: &mut [&mut dyn Observer<MotNode>],
    ) -> Result<RunReport, CliError> {
        Ok(self
            .net
            .run_with_observers(&self.run_config(load)?, observers)?)
    }

    fn domain(&self) -> FaultDomain {
        self.net.fault_domain()
    }

    fn outcome(
        &self,
        load: &Load,
        plan: Option<&FaultPlan>,
        observers: &mut [&mut dyn Observer<MotNode>],
    ) -> Result<RunOutcome, CliError> {
        Ok(run_mot_outcome_observed(
            &self.net,
            &self.run_config(load)?,
            plan,
            observers,
        )?)
    }

    fn summary(report: &RunReport) -> Summary<'_> {
        Summary {
            throughput: &report.throughput,
            power: Some(&report.power),
            packets_measured: report.packets_measured,
            packets_incomplete: report.packets_incomplete,
            flits_throttled: report.flits_throttled,
            flits_delivered: report.flits_delivered,
            events_processed: report.events_processed,
            shards: report.shards,
            shard_events: &report.shard_events,
            profile: report.profile.as_deref(),
        }
    }

    fn write_text(
        &self,
        load: &Load,
        report: &mut RunReport,
        out: &mut dyn Write,
    ) -> Result<(), CliError> {
        let n = self.size().n();
        writeln!(
            out,
            "{} ({n}x{n}) x {} @ {} flits/ns per source",
            self.identity, load.benchmark, load.rate
        )?;
        writeln!(out, "  packets measured : {}", report.packets_measured)?;
        if report.packets_incomplete > 0 {
            writeln!(
                out,
                "  WARNING          : {} packets never completed (saturated?)",
                report.packets_incomplete
            )?;
        }
        if report.acceptance() < 0.95 {
            writeln!(
                out,
                "  WARNING          : only {:.0}% of offered load accepted — past saturation",
                100.0 * report.acceptance()
            )?;
        }
        if let Some(mean) = report.latency.mean() {
            writeln!(out, "  latency mean     : {mean}")?;
            if let (Some(p50), Some(p99), Some(max)) = (
                report.latency.median(),
                report.latency.p99(),
                report.latency.max(),
            ) {
                writeln!(out, "  latency p50/p99  : {p50} / {p99} (max {max})")?;
            }
        }
        writeln!(out, "  throughput       : {}", report.throughput)?;
        writeln!(out, "  power            : {}", report.power)?;
        writeln!(out, "  flits throttled  : {}", report.flits_throttled)?;
        if let Some(histogram) = report.latency.histogram(8) {
            writeln!(out, "  latency distribution:")?;
            for line in histogram.render(32).lines() {
                writeln!(out, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Mesh routers are labelled by their linear index.
fn router_label() -> SiteFn<usize> {
    Box::new(|router| format!("r{router}"))
}

/// The `run` text report shared by both mesh fabrics; `latency` is the
/// mean and p99, when anything was measured.
fn write_mesh_text(
    fabric: &str,
    load: &Load,
    summary: &Summary<'_>,
    latency: Option<(Duration, Duration)>,
    mean_hops: f64,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{fabric} x {} @ {} flits/ns per endpoint",
        load.benchmark, load.rate
    )?;
    writeln!(out, "  packets measured : {}", summary.packets_measured)?;
    let acceptance = summary.throughput.acceptance();
    if summary.packets_incomplete > 0 || acceptance < 0.95 {
        writeln!(
            out,
            "  WARNING          : saturated ({} incomplete, {:.0}% accepted)",
            summary.packets_incomplete,
            100.0 * acceptance
        )?;
    }
    if let Some((mean, p99)) = latency {
        writeln!(out, "  latency mean/p99 : {mean} / {p99}")?;
    }
    writeln!(out, "  throughput       : {}", summary.throughput)?;
    writeln!(out, "  mean hops        : {mean_hops:.2}")?;
    Ok(())
}

impl Fabric for MeshNetwork {
    type Node = usize;
    type Report = MeshReport;
    const TAG: &'static str = "mesh";

    fn endpoints(&self) -> usize {
        self.config().size().endpoints()
    }

    fn label(&self) -> SiteFn<usize> {
        router_label()
    }

    fn simulate(
        &self,
        load: &Load,
        observers: &mut [&mut dyn Observer<usize>],
    ) -> Result<MeshReport, CliError> {
        self.run_with_observers(load.benchmark, load.rate, load.phases, observers)
            .map_err(invalid)
    }

    fn domain(&self) -> FaultDomain {
        self.fault_domain()
    }

    fn outcome(
        &self,
        load: &Load,
        plan: Option<&FaultPlan>,
        observers: &mut [&mut dyn Observer<usize>],
    ) -> Result<RunOutcome, CliError> {
        run_mesh_outcome_observed(
            self,
            load.benchmark,
            load.rate,
            load.phases,
            plan,
            observers,
        )
        .map_err(invalid)
    }

    /// The mesh has no energy model and counts neither throttles nor
    /// delivered flits.
    fn summary(report: &MeshReport) -> Summary<'_> {
        Summary {
            throughput: &report.throughput,
            power: None,
            packets_measured: report.packets_measured,
            packets_incomplete: report.packets_incomplete,
            flits_throttled: 0,
            flits_delivered: 0,
            events_processed: report.events_processed,
            shards: report.shards,
            shard_events: &report.shard_events,
            profile: report.profile.as_deref(),
        }
    }

    fn write_text(
        &self,
        load: &Load,
        report: &mut MeshReport,
        out: &mut dyn Write,
    ) -> Result<(), CliError> {
        let fabric = self.config().size().to_string();
        let latency = report.latency.mean().zip(report.latency.p99());
        let summary = Self::summary(report);
        write_mesh_text(&fabric, load, &summary, latency, report.mean_hops, out)
    }
}

impl Fabric for VcMeshNetwork {
    type Node = usize;
    type Report = VcMeshReport;
    const TAG: &'static str = "vcmesh";

    fn endpoints(&self) -> usize {
        self.config().size().endpoints()
    }

    fn label(&self) -> SiteFn<usize> {
        router_label()
    }

    fn simulate(
        &self,
        load: &Load,
        observers: &mut [&mut dyn Observer<usize>],
    ) -> Result<VcMeshReport, CliError> {
        self.run_with_observers(load.benchmark, load.rate, load.phases, observers)
            .map_err(invalid)
    }

    fn domain(&self) -> FaultDomain {
        self.fault_domain()
    }

    fn outcome(
        &self,
        load: &Load,
        plan: Option<&FaultPlan>,
        observers: &mut [&mut dyn Observer<usize>],
    ) -> Result<RunOutcome, CliError> {
        run_vcmesh_outcome_observed(
            self,
            load.benchmark,
            load.rate,
            load.phases,
            plan,
            observers,
        )
        .map_err(invalid)
    }

    fn summary(report: &VcMeshReport) -> Summary<'_> {
        Summary {
            throughput: &report.throughput,
            power: None,
            packets_measured: report.packets_measured,
            packets_incomplete: report.packets_incomplete,
            flits_throttled: report.flits_throttled,
            flits_delivered: report.flits_delivered,
            events_processed: report.events_processed,
            shards: report.shards,
            shard_events: &report.shard_events,
            profile: report.profile.as_deref(),
        }
    }

    /// The multicast scheme and the shard-exact VC-plane counters. The
    /// serial-only credit-conservation ledger stays out, so `--shards N`
    /// reports remain byte-identical.
    fn sections(&self, report: &VcMeshReport) -> Vec<(String, JsonValue)> {
        let counts =
            |values: &[u64]| JsonValue::Array(values.iter().map(|&v| JsonValue::uint(v)).collect());
        vec![(
            "vcs".to_string(),
            JsonValue::Object(vec![
                (
                    "mcast".to_string(),
                    JsonValue::str(self.config().mcast().to_string()),
                ),
                ("vc_pushes".to_string(), counts(&report.vc_pushes)),
                ("vc_peak".to_string(), counts(&report.vc_peak)),
                (
                    "link_traversals".to_string(),
                    JsonValue::uint(report.link_traversals),
                ),
                ("mean_hops".to_string(), JsonValue::Number(report.mean_hops)),
            ]),
        )]
    }

    fn write_text(
        &self,
        load: &Load,
        report: &mut VcMeshReport,
        out: &mut dyn Write,
    ) -> Result<(), CliError> {
        let size = self.config().size();
        let fabric = format!(
            "{}x{} vcmesh ({})",
            size.cols(),
            size.rows(),
            self.config().mcast()
        );
        let latency = report.latency.mean().zip(report.latency.p99());
        let summary = Self::summary(report);
        write_mesh_text(&fabric, load, &summary, latency, report.mean_hops, out)
    }
}

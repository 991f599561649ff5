//! The traced replay: each workload's pipeline rebuilt from the layer
//! crates' public functions, with a span around every call.
//!
//! Every setting comes from the same parsed [`Command`]s the end-to-end
//! run executes, so the replay simulates exactly what the user's
//! pipeline simulates; [`Replay::fingerprint`] proves it. Engine and
//! kernel counts come from the runs' public `EngineProfile`
//! (`with_profile(true)`), folded over shards and over the pipeline's
//! simulations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use asynoc::probe::{EngineProfile, EventKindCounts, PhaseWall, PoolStats, QueueStats};
use asynoc::{
    Architecture, Benchmark, Duration, MotNode, MotSize, Network, NetworkConfig, Observer, Phases,
    RunConfig, RunReport, SpecMap,
};
use asynoc_analysis::{Analysis, SpanForest};
use asynoc_cli::args::{CommonOptions, Substrate};
use asynoc_cli::Command;
use asynoc_faults::{judge, run_mesh_outcome, FaultPlan};
use asynoc_mesh::{MeshNetwork, MeshSize};
use asynoc_power::EnergyCategory;
use asynoc_stats::throughput::ThroughputReport;
use asynoc_telemetry::{
    fold_stream, parse_trace, render_trace, JsonValue, LatencyHistograms, LevelSpec,
    SpeculationWaste, StreamConfig, StreamSink, TimeSeries, TraceCollector, TraceMeta, WatchConfig,
    METRICS_SCHEMA,
};
use asynoc_topology::{FaninNodeId, FanoutNodeId};
use asynoc_vcmesh::{VcMeshConfig, VcMeshNetwork, VcMeshReport};

use crate::pipeline::{display_ps, metrics_fingerprint, Fingerprint, Workload};

/// What one replay of a workload measured.
pub struct Replay {
    /// The simulated statistics, a superset of what the end-to-end
    /// outputs expose.
    pub fingerprint: Fingerprint,
    /// The metrics document the replay rendered, for workloads whose
    /// pipeline writes one (`metrics.json`). The replay builds it with its
    /// own copy of the CLI's document code, so it must match the
    /// pipeline's file byte for byte.
    pub metrics_doc: Option<String>,
    /// Simulated events over every simulation the pipeline runs.
    pub events: u64,
    /// Shards the runs actually used (the CLI's request, clamped to the
    /// topology).
    pub run_shards: usize,
    /// Per-layer spans (seconds) and counts, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Seconds spent in spans of steps the user's pipeline also runs
    /// (diagnostic-only calls, such as a bare run next to an observed
    /// one, are left out).
    pub pipeline_s: f64,
    /// Internal inconsistencies; any entry invalidates the layer numbers.
    pub problems: Vec<String>,
}

#[derive(Default)]
struct Tracer {
    layers: BTreeMap<&'static str, f64>,
    pipeline_s: f64,
}

impl Tracer {
    /// A span around a call the user's pipeline makes.
    fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, secs) = timed(f);
        *self.layers.entry(name).or_default() += secs;
        self.pipeline_s += secs;
        value
    }

    /// An unnamed pipeline span; the caller derives a metric from it.
    fn step_secs<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let (value, secs) = timed(f);
        self.pipeline_s += secs;
        (value, secs)
    }

    /// A span around a diagnostic call the pipeline does not make.
    fn side<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, secs) = timed(f);
        *self.layers.entry(name).or_default() += secs;
        value
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// The substrate network a simulation command builds.
pub enum Net {
    /// The paper's Mesh-of-Trees.
    Mot(Box<Network>),
    /// The plain 2D mesh.
    Mesh(MeshNetwork),
    /// The credit-based VC mesh.
    VcMesh(VcMeshNetwork),
}

/// The options of a simulation command.
pub fn common_of(command: &Command) -> Option<&CommonOptions> {
    match command {
        Command::Run { common, .. }
        | Command::Metrics { common, .. }
        | Command::Faults { common, .. } => Some(common),
        _ => None,
    }
}

fn mot_network(arch: Option<Architecture>, common: &CommonOptions) -> Result<Network, String> {
    let arch = arch.ok_or("the replay supports --arch placements only")?;
    let size = MotSize::new(common.size).map_err(|e| e.to_string())?;
    let map = SpecMap::preset(arch, size);
    let config = NetworkConfig::new(size, arch)
        .with_seed(common.seed)
        .with_flits_per_packet(common.flits)
        .with_spec_map(&map)
        .map_err(|e| e.to_string())?;
    Network::new(config).map_err(|e| e.to_string())
}

/// Builds the network `command` constructs, the way the CLI does.
/// `profile` arms the engine's self-profile where the substrate carries
/// it in its config (the MoT takes it per run instead).
pub fn build_network(command: &Command, profile: bool) -> Result<Net, String> {
    let side =
        |common: &CommonOptions| MeshSize::new(common.size, common.size).map_err(|e| e.to_string());
    match command {
        Command::Run { arch, common, .. }
        | Command::Metrics {
            arch,
            substrate: Substrate::Mot,
            common,
            ..
        } => mot_network(*arch, common).map(|net| Net::Mot(Box::new(net))),
        Command::Metrics {
            substrate: Substrate::Vcmesh,
            mcast,
            common,
            ..
        } => VcMeshNetwork::new(
            VcMeshConfig::new(side(common)?)
                .with_seed(common.seed)
                .with_flits_per_packet(common.flits)
                .with_mcast(*mcast)
                .with_shards(common.shards)
                .with_profile(profile)
                .with_progress(false),
        )
        .map(Net::VcMesh)
        .map_err(|e| e.to_string()),
        Command::Faults {
            substrate: Substrate::Mesh,
            common,
            ..
        } => {
            let net =
                asynoc_faults::mesh_network(common.size, common.seed, common.flits, common.shards)
                    .map_err(|e| e.to_string())?;
            if !profile {
                return Ok(Net::Mesh(net));
            }
            MeshNetwork::new(net.config().clone().with_profile(true))
                .map(Net::Mesh)
                .map_err(|e| e.to_string())
        }
        _ => Err("no substrate network for this command".into()),
    }
}

/// Builds `command`'s network and its simulation model, as a run does
/// before its first event.
///
/// `Network::new` builds the MoT model. The mesh and VC mesh constructors
/// only store their config and build the model inside each run, so for
/// them the model is built through `fault_domain()`, which constructs the
/// same model from the same config (the `faults` pipeline calls it too).
fn set_up(command: &Command) -> Result<(), String> {
    match build_network(command, false)? {
        Net::Mot(net) => {
            black_box(net);
        }
        Net::Mesh(net) => {
            black_box(net.fault_domain());
        }
        Net::VcMesh(net) => {
            black_box(net.fault_domain());
        }
    }
    Ok(())
}

/// Host seconds one set-up of `command`'s network and model takes (see
/// [`set_up`]), sampled over a whole run.
///
/// A 64x64 MoT builds in well under a millisecond and an 8x8 mesh in
/// microseconds, near what one clock read resolves, so set-ups are timed
/// in batches of about 5 ms each. The host's speed drifts over tenths of
/// a second, so a run takes a few batches between its passes and reports
/// the median of all of them, not of one burst at the start.
pub struct SetupTimer<'a> {
    command: &'a Command,
    per_batch: usize,
    samples: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    /// Sets `command` up once (failing as the run would) and sizes the
    /// batches from a second, warm set-up.
    pub fn new(command: &'a Command) -> Result<SetupTimer<'a>, String> {
        set_up(command)?;
        let (_, once) = timed(|| set_up(command));
        Ok(SetupTimer {
            command,
            per_batch: (0.005 / once.max(1e-9)).ceil().max(1.0) as usize,
            samples: Vec::new(),
        })
    }

    /// Times `batches` more batches.
    pub fn sample(&mut self, batches: usize) {
        for _ in 0..batches {
            let (_, secs) = timed(|| {
                for _ in 0..self.per_batch {
                    black_box(set_up(black_box(self.command)).ok());
                }
            });
            self.samples.push(secs / self.per_batch as f64);
        }
    }

    /// Median seconds per set-up over every batch so far.
    pub fn median(&mut self) -> f64 {
        crate::median(&mut self.samples)
    }
}

fn phases_of(benchmark: Benchmark, common: &CommonOptions) -> Phases {
    let default = Phases::paper_standard(benchmark == Benchmark::MulticastStatic);
    Phases::new(
        common.warmup_ns.map_or(default.warmup(), Duration::from_ns),
        common
            .measure_ns
            .map_or(default.measure(), Duration::from_ns),
    )
}

/// Replays `workload` from its parsed `commands`.
pub fn replay(workload: Workload, commands: &[Command]) -> Result<Replay, String> {
    let mut tracer = Tracer::default();
    let out = match workload {
        Workload::Mot64Run => mot_run(&mut tracer, &commands[0])?,
        Workload::Mot8TraceAnalyze => mot_trace_analyze(&mut tracer, commands)?,
        Workload::Vcmesh8SatStream => vcmesh_stream(&mut tracer, &commands[0])?,
        Workload::Mesh8SatOracle => mesh_oracle(&mut tracer, &commands[0])?,
    };
    engine_layers(&out.profiles, &mut tracer);
    let run_shards = out
        .profiles
        .iter()
        .map(|p| p.shards.len())
        .max()
        .unwrap_or(1);
    Ok(Replay {
        fingerprint: out.fingerprint,
        metrics_doc: out.metrics_doc,
        events: out.events,
        run_shards,
        layers: tracer.layers,
        pipeline_s: tracer.pipeline_s,
        problems: out.problems,
    })
}

/// What a workload-specific replay hands back to [`replay`].
struct Outcome {
    fingerprint: Fingerprint,
    metrics_doc: Option<String>,
    /// Simulated events over the pipeline's runs.
    events: u64,
    /// Self-profiles of the pipeline's simulations.
    profiles: Vec<EngineProfile>,
    problems: Vec<String>,
}

fn run_config(
    benchmark: Benchmark,
    rate: f64,
    common: &CommonOptions,
) -> Result<RunConfig, String> {
    Ok(RunConfig::new(benchmark, rate)
        .map_err(|e| e.to_string())?
        .with_phases(phases_of(benchmark, common))
        .with_shards(common.shards)
        .with_profile(true))
}

fn take_profile(profile: &mut Option<Box<EngineProfile>>) -> Result<EngineProfile, String> {
    profile
        .take()
        .map(|p| *p)
        .ok_or_else(|| "run returned no profile".to_string())
}

fn mot_run(tracer: &mut Tracer, command: &Command) -> Result<Outcome, String> {
    let Command::Run {
        benchmark,
        rate,
        common,
        ..
    } = command
    else {
        return Err("mot64-run expects a run command".into());
    };
    let Net::Mot(net) = tracer.step_secs(|| build_network(command, true)).0? else {
        unreachable!("a run command builds a MoT");
    };
    let run = run_config(*benchmark, *rate, common)?;
    let mut report = tracer
        .step("core.run_s", || net.run(&run))
        .map_err(|e| e.to_string())?;
    tracer.set(
        "core.ns_per_event",
        per_event(&tracer.layers, "core.run_s", report.events_processed),
    );
    let p50 = report.latency.median().map_or(0, |d| display_ps(d.as_ps()));
    let p99 = report.latency.p99().map_or(0, |d| display_ps(d.as_ps()));
    let fingerprint = Fingerprint::from([
        ("events_processed", report.events_processed),
        ("packets_measured", report.packets_measured as u64),
        ("packets_incomplete", report.packets_incomplete as u64),
        ("flits_delivered", report.flits_delivered),
        ("p50_ps", p50),
        ("p99_ps", p99),
    ]);
    Ok(Outcome {
        fingerprint,
        metrics_doc: None,
        events: report.events_processed,
        profiles: vec![take_profile(&mut report.profile)?],
        problems: Vec::new(),
    })
}

fn mot_levels(size: MotSize) -> Vec<LevelSpec> {
    let n = size.n();
    let levels = size.levels() as usize;
    let label = |kind: &str, level: usize| LevelSpec {
        label: format!("{kind}-L{level}"),
        nodes: n << level,
    };
    (0..levels)
        .map(|l| label("fanout", l))
        .chain((0..levels).map(|l| label("fanin", l)))
        .collect()
}

fn mot_label(size: MotSize) -> impl Fn(MotNode) -> String + Copy {
    move |node| match node {
        MotNode::Fanout(flat) => FanoutNodeId::from_flat_index(size, flat).to_string(),
        MotNode::Fanin(flat) => FaninNodeId::from_flat_index(size, flat).to_string(),
    }
}

fn config_json(
    arch: Option<&str>,
    benchmark: Benchmark,
    rate: f64,
    common: &CommonOptions,
) -> JsonValue {
    JsonValue::Object(vec![
        ("arch".into(), arch.map_or(JsonValue::Null, JsonValue::str)),
        ("benchmark".into(), JsonValue::str(benchmark.to_string())),
        ("rate_gfs".into(), JsonValue::Number(rate)),
        ("size".into(), JsonValue::uint(common.size as u64)),
        ("seed".into(), JsonValue::uint(common.seed)),
        ("flits".into(), JsonValue::uint(u64::from(common.flits))),
    ])
}

fn throughput_json(t: &ThroughputReport) -> JsonValue {
    JsonValue::Object(vec![
        ("offered_gfs".into(), JsonValue::Number(t.offered)),
        ("injected_gfs".into(), JsonValue::Number(t.injected)),
        ("delivered_gfs".into(), JsonValue::Number(t.delivered)),
        ("acceptance".into(), JsonValue::Number(t.acceptance())),
    ])
}

fn counters_json(
    measured: usize,
    incomplete: usize,
    throttled: u64,
    delivered: u64,
    events: u64,
    shards: usize,
    shard_events: &[u64],
) -> JsonValue {
    JsonValue::Object(vec![
        ("packets_measured".into(), JsonValue::uint(measured as u64)),
        (
            "packets_incomplete".into(),
            JsonValue::uint(incomplete as u64),
        ),
        ("flits_throttled".into(), JsonValue::uint(throttled)),
        ("flits_delivered".into(), JsonValue::uint(delivered)),
        ("events_processed".into(), JsonValue::uint(events)),
        ("shards".into(), JsonValue::uint(shards as u64)),
        (
            "shard_events".into(),
            JsonValue::Array(shard_events.iter().map(|&e| JsonValue::uint(e)).collect()),
        ),
    ])
}

fn mot_power_json(report: &RunReport, window: Duration) -> JsonValue {
    let category = |c| JsonValue::Number(report.power.category_mw(c));
    JsonValue::Object(vec![
        ("fanout_mw".into(), category(EnergyCategory::Fanout)),
        ("fanin_mw".into(), category(EnergyCategory::Fanin)),
        ("wire_mw".into(), category(EnergyCategory::Wire)),
        ("dropped_mw".into(), category(EnergyCategory::Dropped)),
        (
            "dynamic_mw".into(),
            JsonValue::Number(report.power.dynamic_mw()),
        ),
        (
            "leakage_mw".into(),
            JsonValue::Number(report.power.leakage_mw()),
        ),
        (
            "total_mw".into(),
            JsonValue::Number(report.power.total_mw()),
        ),
        ("window_ps".into(), JsonValue::uint(window.as_ps())),
    ])
}

fn mot_trace_analyze(tracer: &mut Tracer, commands: &[Command]) -> Result<Outcome, String> {
    let (
        Command::Metrics {
            arch,
            benchmark,
            rate,
            bin_ns,
            trace_limit,
            common,
            ..
        },
        Some(Command::Analyze { top, .. }),
    ) = (&commands[0], commands.get(1))
    else {
        return Err("mot8-trace-analyze expects metrics then analyze".into());
    };
    let Net::Mot(net) = tracer.step_secs(|| build_network(&commands[0], true)).0? else {
        unreachable!("a MoT metrics command builds a MoT");
    };
    let size = net.config().size();
    let identity = arch.map(|a| a.to_string());
    let (wire_fj, drop_fj) = (net.config().timing().wire_fj, net.config().timing().drop_fj);
    let phases = phases_of(*benchmark, common);
    let run = run_config(*benchmark, *rate, common)?;
    let bare = tracer
        .side("core.run_s", || net.run(&run))
        .map_err(|e| e.to_string())?;
    tracer.set(
        "core.ns_per_event",
        per_event(&tracer.layers, "core.run_s", bare.events_processed),
    );

    let mut latency = LatencyHistograms::new(phases, size.n());
    let levels = size.levels() as usize;
    let mut timeseries = TimeSeries::new(
        Duration::from_ns(*bin_ns),
        mot_levels(size),
        Box::new(move |node: MotNode| match node {
            MotNode::Fanout(flat) => Some(FanoutNodeId::from_flat_index(size, flat).level as usize),
            MotNode::Fanin(flat) => {
                Some(levels + FaninNodeId::from_flat_index(size, flat).level as usize)
            }
        }),
    );
    let label = mot_label(size);
    let mut waste = SpeculationWaste::new(
        wire_fj,
        drop_fj,
        Box::new(label),
        Box::new(move |node: MotNode| match node {
            MotNode::Fanout(flat) => {
                let id = FanoutNodeId::from_flat_index(size, flat);
                (id.level > 0).then(|| {
                    MotNode::Fanout(
                        FanoutNodeId {
                            tree: id.tree,
                            level: id.level - 1,
                            index: id.index / 2,
                        }
                        .flat_index(size),
                    )
                })
            }
            MotNode::Fanin(_) => None,
        }),
    );
    let mut collector = TraceCollector::new(*trace_limit, Box::new(label));
    let (report, observed_s) = tracer.step_secs(|| {
        let mut extra: Vec<&mut dyn Observer<MotNode>> =
            vec![&mut latency, &mut timeseries, &mut waste, &mut collector];
        net.run_with_observers(&run, &mut extra)
    });
    let mut report = report.map_err(|e| e.to_string())?;
    tracer.set(
        "telemetry.observe_s",
        observed_s - tracer.layers["core.run_s"],
    );

    let doc = tracer.step("telemetry.render_metrics_s", || {
        let dynamic_fj = report.power.dynamic_mw() * phases.measure().as_ps() as f64;
        JsonValue::Object(vec![
            ("schema".into(), JsonValue::str(METRICS_SCHEMA)),
            ("substrate".into(), JsonValue::str("mot")),
            (
                "config".into(),
                config_json(identity.as_deref(), *benchmark, *rate, common),
            ),
            ("latency".into(), latency.to_json()),
            ("timeseries".into(), timeseries.to_json()),
            ("waste".into(), waste.to_json(dynamic_fj)),
            ("throughput".into(), throughput_json(&report.throughput)),
            ("power".into(), mot_power_json(&report, phases.measure())),
            (
                "counters".into(),
                counters_json(
                    report.packets_measured,
                    report.packets_incomplete,
                    report.flits_throttled,
                    report.flits_delivered,
                    report.events_processed,
                    report.shards,
                    &report.shard_events,
                ),
            ),
        ])
        .render_pretty()
    });
    let fingerprint = document_fingerprint(&doc)?;

    let meta = TraceMeta {
        substrate: "mot".into(),
        arch: identity,
        size: common.size as u64,
        seed: common.seed,
        flits: common.flits,
        rate: *rate,
        warmup_ps: phases.warmup().as_ps(),
        measure_ps: phases.measure().as_ps(),
        wire_fj: Some(wire_fj),
        drop_fj: Some(drop_fj),
        dropped_events: collector.dropped(),
    };
    let trace = tracer.step("telemetry.render_trace_s", || {
        render_trace(&meta, collector.records())
    });
    drop(collector);
    let lines = trace.lines().count() as u64;
    tracer.set("telemetry.trace_lines", lines as f64);
    tracer.set("telemetry.trace_bytes", trace.len() as f64);
    let (meta, records) = tracer
        .step("telemetry.parse_trace_s", || parse_trace(&trace))
        .map_err(|e| e.to_string())?;
    drop(trace);
    tracer.set(
        "telemetry.parse_ns_per_line",
        tracer.layers["telemetry.parse_trace_s"] * 1e9 / lines.max(1) as f64,
    );
    black_box(tracer.side("analysis.span_forest_s", || SpanForest::build(&records)));
    let analysis = tracer.step("analysis.build_s", || Analysis::build(meta, records, *top));
    black_box(tracer.step("analysis.to_json_s", || analysis.to_json(0).render_pretty()));

    Ok(Outcome {
        fingerprint,
        metrics_doc: Some(doc),
        events: report.events_processed,
        profiles: vec![take_profile(&mut report.profile)?],
        problems: Vec::new(),
    })
}

fn document_fingerprint(text: &str) -> Result<Fingerprint, String> {
    JsonValue::parse(text)
        .ok()
        .as_ref()
        .and_then(metrics_fingerprint)
        .ok_or_else(|| "replayed metrics document has no fingerprint".to_string())
}

/// A stream destination owned by the benchmark: keeps the bytes for the
/// fold and notes when the first `window` record reaches it.
struct ProbeWriter(Rc<RefCell<Probe>>);

#[derive(Default)]
struct Probe {
    bytes: Vec<u8>,
    first_window: Option<Instant>,
}

impl Write for ProbeWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut probe = self.0.borrow_mut();
        if probe.first_window.is_none() && contains(buf, b"\"type\":\"window\"") {
            probe.first_window = Some(Instant::now());
        }
        probe.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// The stream's flush window and bin widths, as the CLI resolves them
/// for a command with a time-series grid.
fn stream_widths(common: &CommonOptions, bin_ns: u64) -> (Duration, Duration) {
    let window = common
        .stream_window_ns
        .unwrap_or_else(|| bin_ns * 1000u64.div_ceil(bin_ns));
    (Duration::from_ns(window), Duration::from_ns(bin_ns))
}

/// The batch metrics document of a VC mesh run, plus the scalar
/// sections the stream's `end` record carries.
fn vcmesh_doc(report: &VcMeshReport, parts: VcMeshParts<'_>) -> (JsonValue, JsonValue) {
    let counters = counters_json(
        report.packets_measured,
        report.packets_incomplete,
        report.flits_throttled,
        report.flits_delivered,
        report.events_processed,
        report.shards,
        &report.shard_events,
    );
    let vcs = JsonValue::Object(vec![
        ("mcast".into(), JsonValue::str(parts.mcast)),
        (
            "vc_pushes".into(),
            JsonValue::Array(
                report
                    .vc_pushes
                    .iter()
                    .map(|&p| JsonValue::uint(p))
                    .collect(),
            ),
        ),
        (
            "vc_peak".into(),
            JsonValue::Array(report.vc_peak.iter().map(|&p| JsonValue::uint(p)).collect()),
        ),
        (
            "link_traversals".into(),
            JsonValue::uint(report.link_traversals),
        ),
        ("mean_hops".into(), JsonValue::Number(report.mean_hops)),
    ]);
    let sections = JsonValue::Object(vec![
        ("waste".into(), JsonValue::Null),
        ("throughput".into(), throughput_json(&report.throughput)),
        ("power".into(), JsonValue::Null),
        ("counters".into(), counters.clone()),
        ("vcs".into(), vcs.clone()),
    ]);
    let doc = JsonValue::Object(vec![
        ("schema".into(), JsonValue::str(METRICS_SCHEMA)),
        ("substrate".into(), JsonValue::str("vcmesh")),
        ("config".into(), parts.config),
        ("latency".into(), parts.latency),
        ("timeseries".into(), parts.timeseries),
        ("waste".into(), JsonValue::Null),
        ("throughput".into(), throughput_json(&report.throughput)),
        ("power".into(), JsonValue::Null),
        ("counters".into(), counters),
        ("vcs".into(), vcs),
    ]);
    (doc, sections)
}

struct VcMeshParts<'a> {
    mcast: &'a str,
    config: JsonValue,
    latency: JsonValue,
    timeseries: JsonValue,
}

fn vcmesh_stream(tracer: &mut Tracer, command: &Command) -> Result<Outcome, String> {
    let Command::Metrics {
        substrate: Substrate::Vcmesh,
        benchmark,
        rate,
        mcast,
        bin_ns,
        common,
        ..
    } = command
    else {
        return Err("vcmesh8-sat-stream expects a vcmesh metrics command".into());
    };
    let Net::VcMesh(net) = tracer.step_secs(|| build_network(command, true)).0? else {
        unreachable!("a vcmesh metrics command builds a VC mesh");
    };
    let phases = phases_of(*benchmark, common);
    let endpoints = net.config().size().endpoints();
    let bare = tracer
        .side("vcmesh.run_s", || net.run(*benchmark, *rate, phases))
        .map_err(|e| e.to_string())?;
    tracer.set(
        "vcmesh.ns_per_event",
        per_event(&tracer.layers, "vcmesh.run_s", bare.events_processed),
    );

    let config = config_json(None, *benchmark, *rate, common);
    let (window, bin) = stream_widths(common, *bin_ns);
    let probe = Rc::new(RefCell::new(Probe::default()));
    let mut sink = StreamSink::new(
        Box::new(ProbeWriter(Rc::clone(&probe))),
        StreamConfig {
            substrate: "vcmesh".into(),
            config: config.clone(),
            window,
            trace_limit: None,
            watch: WatchConfig::default(),
        },
        phases,
        endpoints,
        TimeSeries::single_level(bin, "router", endpoints),
        Box::new(|router: usize| format!("r{router}")),
    )
    .map_err(|e| e.to_string())?;
    let mut latency = LatencyHistograms::new(phases, endpoints);
    let mut timeseries: TimeSeries<usize> =
        TimeSeries::single_level(Duration::from_ns(*bin_ns), "router", endpoints);
    let ((report, started), observed_s) = tracer.step_secs(|| {
        let mut extra: Vec<&mut dyn Observer<usize>> =
            vec![&mut latency, &mut timeseries, &mut sink];
        let started = Instant::now();
        (
            net.run_with_observers(*benchmark, *rate, phases, &mut extra),
            started,
        )
    });
    let mut report = report.map_err(|e| e.to_string())?;
    tracer.set(
        "telemetry.observe_s",
        observed_s - tracer.layers["vcmesh.run_s"],
    );
    let first_window = probe.borrow().first_window;
    tracer.set(
        "telemetry.first_window_s",
        first_window.map_or(observed_s, |t| t.duration_since(started).as_secs_f64()),
    );

    let mcast_name = mcast.to_string();
    let (doc, sections) = tracer.step("telemetry.render_metrics_s", || {
        let (doc, sections) = vcmesh_doc(
            &report,
            VcMeshParts {
                mcast: &mcast_name,
                config,
                latency: latency.to_json(),
                timeseries: timeseries.to_json(),
            },
        );
        (doc.render_pretty(), sections)
    });
    let fingerprint = document_fingerprint(&doc)?;
    tracer
        .step_secs(|| sink.finish(sections))
        .0
        .map_err(|e| e.to_string())?;
    let stream = String::from_utf8(std::mem::take(&mut probe.borrow_mut().bytes))
        .map_err(|e| e.to_string())?;
    tracer.set("telemetry.stream_bytes", stream.len() as f64);
    let folded = tracer
        .step("telemetry.fold_stream_s", || {
            fold_stream(&stream).map(|doc| doc.render_pretty())
        })
        .map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    if document_fingerprint(&folded)? != fingerprint {
        problems.push("folded stream disagrees with the batch document".into());
    }
    Ok(Outcome {
        fingerprint,
        metrics_doc: Some(doc),
        events: report.events_processed,
        profiles: vec![take_profile(&mut report.profile)?],
        problems,
    })
}

fn mesh_oracle(tracer: &mut Tracer, command: &Command) -> Result<Outcome, String> {
    let Command::Faults {
        substrate: Substrate::Mesh,
        benchmark,
        rate,
        plan,
        fault_rate,
        oracle: true,
        common,
        ..
    } = command
    else {
        return Err("mesh8-sat-oracle expects a mesh faults --oracle command".into());
    };
    let Net::Mesh(net) = tracer.step_secs(|| build_network(command, true)).0? else {
        unreachable!("a mesh faults command builds a mesh");
    };
    let phases = phases_of(*benchmark, common);
    let mut bare = tracer
        .side("mesh.run_s", || net.run(*benchmark, *rate, phases))
        .map_err(|e| e.to_string())?;
    tracer.set(
        "mesh.ns_per_event",
        per_event(&tracer.layers, "mesh.run_s", bare.events_processed),
    );

    let (domain, plan) = tracer
        .step_secs(|| {
            let domain = net.fault_domain();
            let plan = match plan {
                Some(text) => FaultPlan::parse(text).map_err(|e| e.to_string()),
                None => Ok(FaultPlan::random(common.seed, *fault_rate, &domain)),
            };
            (domain, plan)
        })
        .0;
    let plan = plan?;
    let (faulted, clean) = tracer.step("faults.outcome_s", || {
        (
            run_mesh_outcome(&net, *benchmark, *rate, phases, Some(&plan)),
            run_mesh_outcome(&net, *benchmark, *rate, phases, None),
        )
    });
    let mut faulted = faulted.map_err(|e| e.to_string())?;
    let mut clean = clean.map_err(|e| e.to_string())?;
    let verdict = tracer.step("faults.judge_s", || judge(&clean, &faulted, &plan, &domain));
    tracer.set("faults.fired", faulted.summary.total() as f64);

    let profiles = vec![
        take_profile(&mut faulted.profile)?,
        take_profile(&mut clean.profile)?,
    ];
    let quantile = |d: Option<Duration>| d.map_or(0, |d| d.as_ps());
    // The outcome API distils each twin's report away, so the event count
    // and quantiles are the bare run's. The clean twin simulates the same
    // run; the figures both expose must agree.
    let mut problems = Vec::new();
    let bare_mean = bare.latency.mean().map(|d| d.as_ps());
    if (bare.packets_incomplete, bare_mean) != (clean.packets_incomplete, clean.mean_latency_ps) {
        problems.push(format!(
            "bare run (incomplete {}, mean {bare_mean:?} ps) disagrees with the clean twin \
             (incomplete {}, mean {:?} ps)",
            bare.packets_incomplete, clean.packets_incomplete, clean.mean_latency_ps
        ));
    }
    let mut fingerprint = Fingerprint::from([
        ("events_processed", bare.events_processed),
        ("packets_measured", bare.packets_measured as u64),
        ("packets_incomplete", bare.packets_incomplete as u64),
        ("p50_ps", quantile(bare.latency.median())),
        ("p99_ps", quantile(bare.latency.p99())),
        ("faults.fired", faulted.summary.total()),
        ("oracle.pass", u64::from(verdict.pass())),
    ]);
    for (outcome, [incomplete, deliveries, mean]) in [
        (
            &faulted,
            [
                "faulted.packets_incomplete",
                "faulted.deliveries",
                "faulted.mean_latency_ps",
            ],
        ),
        (
            &clean,
            [
                "clean.packets_incomplete",
                "clean.deliveries",
                "clean.mean_latency_ps",
            ],
        ),
    ] {
        fingerprint.insert(incomplete, outcome.packets_incomplete as u64);
        fingerprint.insert(deliveries, outcome.deliveries.values().sum());
        if let Some(ps) = outcome.mean_latency_ps {
            fingerprint.insert(mean, ps);
        }
    }
    Ok(Outcome {
        fingerprint,
        metrics_doc: None,
        // Host-executed events of both twins: a sharded run's workers
        // may execute a few events past the drain cut that the folded
        // `events_processed` leaves out.
        events: profile_events(&profiles),
        profiles,
        problems,
    })
}

fn per_event(layers: &BTreeMap<&'static str, f64>, span: &str, events: u64) -> f64 {
    layers[span] * 1e9 / events.max(1) as f64
}

fn profile_events(profiles: &[EngineProfile]) -> u64 {
    profiles
        .iter()
        .flat_map(|p| &p.shards)
        .map(|s| s.events)
        .sum()
}

/// Folds the kernel and engine counters of the pipeline's runs.
fn engine_layers(profiles: &[EngineProfile], tracer: &mut Tracer) {
    let mut queue = QueueStats::default();
    let mut pool = PoolStats::default();
    let mut kinds = EventKindCounts::default();
    let mut phase = PhaseWall::default();
    let (mut windows, mut mailbox, mut wait_ns, mut cpu_ns, mut shards) = (0, 0, 0, 0, 0);
    let mut shard_events: Vec<u64> = Vec::new();
    for profile in profiles {
        shards = shards.max(profile.shards.len());
        cpu_ns += profile.wall_ns * profile.shards.len() as u64;
        // Every shard steps through the same windows: count them once.
        windows += profile.shards.iter().map(|s| s.windows).max().unwrap_or(0);
        for s in &profile.shards {
            queue.merge(&s.queue);
            pool.merge(&s.pool);
            kinds.merge(&s.kinds);
            phase.merge(&s.phase);
            mailbox += s.received;
            wait_ns += s.barrier_wait.total_ns();
            if shard_events.len() <= s.shard {
                shard_events.resize(s.shard + 1, 0);
            }
            shard_events[s.shard] += s.events;
        }
    }
    let mean = shard_events.iter().sum::<u64>() as f64 / shard_events.len().max(1) as f64;
    let max = shard_events.iter().copied().max().unwrap_or(0) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let phase_total = phase.warmup_ns + phase.measure_ns + phase.drain_ns;
    for (name, value) in [
        ("kernel.queue_pops", queue.pops as f64),
        ("kernel.queue_resizes", queue.resizes as f64),
        ("kernel.fallback_scans", queue.fallback_scans as f64),
        ("kernel.depth_high_water", queue.depth_high_water as f64),
        ("engine.shards", shards as f64),
        ("engine.windows", windows as f64),
        ("engine.barrier_wait_share", ratio(wait_ns, cpu_ns)),
        (
            "engine.event_ratio",
            if mean > 0.0 { max / mean } else { 1.0 },
        ),
        ("engine.mailbox_msgs", mailbox as f64),
        ("engine.pool_hit_rate", pool.hit_rate()),
        ("engine.retry_share", ratio(kinds.retry, kinds.total())),
        ("engine.drain_share", ratio(phase.drain_ns, phase_total)),
    ] {
        tracer.set(name, value);
    }
}

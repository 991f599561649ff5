//! Command execution, writing human-readable reports to any `Write` sink
//! (tests capture a `Vec<u8>`, `main` passes stdout).

use std::io::{self, Write};

use asynoc::harness::{saturation_of, saturation_of_profiled, Quality};
use asynoc::{
    parallel_map, Architecture, Duration, FanoutKind, FanoutNodeId, MotSize, Network,
    NetworkConfig, Observer, Phases, RunConfig, SimError, SpecMap,
};
use asynoc_telemetry::JsonValue;

use crate::args::{Command, CommonOptions, USAGE};
use crate::profile::ProfileWriter;
use crate::substrate::{Fabric, Job, Load};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Simulation/configuration error.
    Sim(SimError),
    /// Output error.
    Io(io::Error),
    /// Invalid combination the parser cannot catch (e.g. bad size).
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

pub(crate) fn network(arch: Architecture, common: &CommonOptions) -> Result<Network, CliError> {
    let size = MotSize::new(common.size).map_err(|e| CliError::Invalid(format!("--size: {e}")))?;
    let config = NetworkConfig::new(size, arch)
        .with_seed(common.seed)
        .with_flits_per_packet(common.flits);
    Ok(Network::new(config)?)
}

/// Resolves `--arch` / `--spec-map` into a validated [`SpecMap`] at the
/// `--size` in effect. Accepts preset names, the `levels:`/`node:` text
/// grammar, and `@path` JSON documents.
pub(crate) fn resolve_spec_map(
    arch: Option<Architecture>,
    spec_map: Option<&String>,
    common: &CommonOptions,
) -> Result<SpecMap, CliError> {
    let size = MotSize::new(common.size).map_err(|e| CliError::Invalid(format!("--size: {e}")))?;
    match (arch, spec_map) {
        (Some(arch), None) => Ok(SpecMap::preset(arch, size)),
        (None, Some(raw)) => {
            if let Some(path) = raw.strip_prefix('@') {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Invalid(format!("--spec-map {path}: {e}")))?;
                let doc = JsonValue::parse(&text)
                    .map_err(|e| CliError::Invalid(format!("--spec-map {path}: {e}")))?;
                spec_map_from_json(size, &doc)
                    .map_err(|detail| CliError::Invalid(format!("--spec-map {path}: {detail}")))
            } else {
                SpecMap::parse(size, raw).map_err(|e| CliError::Invalid(format!("--spec-map: {e}")))
            }
        }
        // The parser enforces exactly-one; this covers direct Command construction.
        _ => Err(CliError::Invalid(
            "exactly one of --arch / --spec-map selects the placement".to_string(),
        )),
    }
}

/// The JSON `--spec-map @file` forms: `{"preset": "<Architecture>"}` or
/// `{"levels": ["sp", ...], "nodes": [{"tree": 0, "level": 1, "index": 0,
/// "kind": "ns"}, ...]}`.
fn spec_map_from_json(size: MotSize, doc: &JsonValue) -> Result<SpecMap, String> {
    if let Some(preset) = doc.get("preset") {
        let name = preset
            .as_str()
            .ok_or_else(|| "\"preset\" must be an architecture name string".to_string())?;
        let arch: Architecture = name.parse().map_err(|e| format!("\"preset\": {e}"))?;
        return Ok(SpecMap::preset(arch, size));
    }
    let levels = doc
        .get("levels")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "expected a \"preset\" string or a \"levels\" array".to_string())?;
    let mut kinds = Vec::with_capacity(levels.len());
    for (i, level) in levels.iter().enumerate() {
        let token = level
            .as_str()
            .ok_or_else(|| format!("\"levels\"[{i}] must be a fanout-kind token string"))?;
        kinds.push(
            FanoutKind::parse_token(token)
                .ok_or_else(|| format!("\"levels\"[{i}]: unknown fanout kind `{token}`"))?,
        );
    }
    let mut map = SpecMap::from_levels(size, kinds).map_err(|e| e.to_string())?;
    if let Some(nodes) = doc.get("nodes").and_then(JsonValue::as_array) {
        for (i, node) in nodes.iter().enumerate() {
            let field = |key: &str| -> Result<usize, String> {
                node.get(key)
                    .and_then(JsonValue::as_f64)
                    .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                    .map(|v| v as usize)
                    .ok_or_else(|| format!("\"nodes\"[{i}].{key} must be a non-negative integer"))
            };
            let token = node
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("\"nodes\"[{i}].kind must be a fanout-kind token"))?;
            let kind = FanoutKind::parse_token(token)
                .ok_or_else(|| format!("\"nodes\"[{i}].kind: unknown fanout kind `{token}`"))?;
            let id = FanoutNodeId {
                tree: field("tree")?,
                level: field("level")? as u32,
                index: field("index")?,
            };
            map = map.with_node(id, kind).map_err(|e| e.to_string())?;
        }
    }
    Ok(map)
}

/// The placement's identity string: the preset name when the map matches
/// one of the paper's six architectures, the canonical `levels:` form
/// otherwise. Recorded as `"arch"` in every report config so any run is
/// reproducible from its own output.
pub(crate) fn placement_id(map: &SpecMap) -> String {
    map.label()
        .map_or_else(|| map.to_string(), |arch| arch.to_string())
}

/// Builds a network realizing an arbitrary speculation placement.
pub(crate) fn network_for(map: &SpecMap, common: &CommonOptions) -> Result<Network, CliError> {
    let arch = map.label().unwrap_or(Architecture::OptHybridSpeculative);
    let config = NetworkConfig::new(map.size(), arch)
        .with_seed(common.seed)
        .with_flits_per_packet(common.flits)
        .with_spec_map(map)?;
    Ok(Network::new(config)?)
}

pub(crate) fn phases_for(benchmark: asynoc::Benchmark, common: &CommonOptions) -> Phases {
    let default = Phases::paper_standard(benchmark == asynoc::Benchmark::MulticastStatic);
    let warmup = common.warmup_ns.map_or(default.warmup(), Duration::from_ns);
    let measure = common
        .measure_ns
        .map_or(default.measure(), Duration::from_ns);
    Phases::new(warmup, measure)
}

/// `run --seeds K`: replicates one measurement over consecutive seeds,
/// fanned across `--jobs` workers, and reports per-seed rows plus the
/// mean ± sample standard deviation of the mean latency.
fn run_across_seeds(
    map: &SpecMap,
    benchmark: asynoc::Benchmark,
    rate: f64,
    seeds: usize,
    common: &CommonOptions,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let identity = placement_id(map);
    let mut profiler = ProfileWriter::when(common.profile.as_ref(), "run");
    let seed_list: Vec<u64> = (0..seeds as u64).map(|k| common.seed + k).collect();
    let reports = parallel_map(common.jobs, seed_list, |seed| {
        let options = CommonOptions {
            seed,
            ..common.clone()
        };
        let net = network_for(map, &options)?;
        let run = RunConfig::new(benchmark, rate)
            .map_err(CliError::from)?
            .with_phases(phases_for(benchmark, &options))
            .with_shards(options.shards)
            .with_profile(options.profile.is_some())
            .with_progress(options.progress);
        Ok::<_, CliError>((seed, net.run(&run)?))
    });

    writeln!(
        out,
        "{identity} ({0}x{0}) x {benchmark} @ {rate} flits/ns per source, {seeds} seeds",
        common.size
    )?;
    writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>12} {:>12}",
        "seed", "packets", "mean", "p99", "accepted"
    )?;
    let mut means_ps = Vec::with_capacity(seeds);
    for result in reports {
        let (seed, mut report) = result?;
        if let (Some(profiler), Some(profile)) = (profiler.as_mut(), &report.profile) {
            let options = CommonOptions {
                seed,
                ..common.clone()
            };
            profiler.add_run(
                crate::metrics::config_json(Some(&identity), benchmark, rate, &options),
                profile,
            );
        }
        let mean = report.latency.mean();
        means_ps.push(mean.map(|d| d.as_ps() as f64).unwrap_or_default());
        writeln!(
            out,
            "{:<8} {:>10} {:>14} {:>12} {:>11.0}%",
            seed,
            report.packets_measured,
            mean.map_or("-".to_string(), |d| d.to_string()),
            report
                .latency
                .p99()
                .map_or("-".to_string(), |d| d.to_string()),
            100.0 * report.acceptance()
        )?;
    }
    let n = means_ps.len() as f64;
    let mean = means_ps.iter().sum::<f64>() / n;
    let std_dev = if means_ps.len() > 1 {
        (means_ps.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    } else {
        0.0
    };
    writeln!(
        out,
        "mean latency across seeds: {:.0} ps +/- {:.0} ps (sample std dev)",
        mean, std_dev
    )?;
    if let Some(profiler) = profiler {
        profiler.finish()?;
    }
    Ok(())
}

/// The single-seed `run` body, generic over the fabric: the text
/// report, plus the stream and profile when asked for.
struct RunJob<'a> {
    command: &'a Command,
    out: &'a mut dyn Write,
}

impl Job for RunJob<'_> {
    const NAME: &'static str = "run";

    fn on<F: Fabric>(
        self,
        fabric: &F,
        mut profiler: Option<ProfileWriter>,
    ) -> Result<(), CliError> {
        let Command::Run {
            benchmark,
            rate,
            common,
            ..
        } = self.command
        else {
            unreachable!("dispatched on Command::Run");
        };
        let load = Load::new(*benchmark, *rate, common);
        let config = crate::metrics::config_json(fabric.identity(), *benchmark, *rate, common);
        let mut sink = crate::stream::sink(
            fabric,
            common,
            config.clone(),
            load.phases,
            None,
            crate::stream::DEFAULT_TRACE_LIMIT,
        )?;
        let mut extra: Vec<&mut dyn Observer<F::Node>> =
            sink.iter_mut().map(|sink| sink as _).collect();
        let mut report = fabric.simulate(&load, &mut extra)?;
        if let (Some(profiler), Some(profile)) = (profiler.as_mut(), F::summary(&report).profile) {
            profiler.add_run(config, profile);
        }
        fabric.write_text(&load, &mut report, self.out)?;
        if let Some(profiler) = profiler {
            profiler.finish()?;
        }
        let sections =
            crate::metrics::scalar_sections(fabric, &report, load.phases.measure(), None);
        let watchpoints = crate::stream::finish(sink, JsonValue::Object(sections))?;
        crate::stream::fatal_check(watchpoints, common)
    }
}

/// Executes a parsed command, writing its report to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] on simulation or I/O failure.
pub fn execute(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Run {
            arch,
            spec_map,
            benchmark,
            rate,
            seeds,
            common,
            ..
        } => {
            if *seeds > 1 {
                let map = resolve_spec_map(*arch, spec_map.as_ref(), common)?;
                return run_across_seeds(&map, *benchmark, *rate, *seeds, common, out);
            }
            crate::substrate::dispatch(command, RunJob { command, out })
        }
        Command::Saturate {
            arch,
            benchmark,
            quick,
            probe_fan,
            common,
        } => {
            let mut profiler = ProfileWriter::when(common.profile.as_ref(), "saturate");
            let net = network(*arch, common)?;
            let mut quality = if *quick {
                Quality::quick()
            } else {
                Quality::paper()
            };
            quality.seed = common.seed;
            quality.probe_fan = *probe_fan;
            quality.jobs = common.jobs;
            quality.shards = common.shards;
            // A profiled search collects one runs[] entry per bisection
            // probe (plus the plateau run), keyed by its offered rate.
            let identity = arch.to_string();
            let point = match profiler.as_mut() {
                Some(profiler) => {
                    let (point, profiles) = saturation_of_profiled(&net, *benchmark, &quality)?;
                    for (rate, profile) in &profiles {
                        profiler.add_run(
                            crate::metrics::config_json(Some(&identity), *benchmark, *rate, common),
                            profile,
                        );
                    }
                    point
                }
                None => saturation_of(&net, *benchmark, &quality)?,
            };
            writeln!(out, "{arch} x {benchmark} saturation:")?;
            writeln!(
                out,
                "  stable injected load : {:.2} flits/ns per source",
                point.injected_gfs
            )?;
            writeln!(
                out,
                "  delivered plateau    : {:.2} GF/s per source (Table 1 quantity)",
                point.delivered_gfs
            )?;
            if let Some(profiler) = profiler {
                profiler.finish()?;
            }
            Ok(())
        }
        Command::Sweep {
            arch,
            benchmark,
            from,
            to,
            steps,
            common,
        } => {
            let mut profiler = ProfileWriter::when(common.profile.as_ref(), "sweep");
            let net = network(*arch, common)?;
            writeln!(out, "{arch} x {benchmark}: latency vs offered load")?;
            writeln!(
                out,
                "{:<12} {:>14} {:>12} {:>12}",
                "load", "mean", "p99", "accepted"
            )?;
            // Sweep points are independent runs — fan them across workers
            // and print in input order (one runs[] entry per point, too).
            let rates: Vec<f64> = (0..*steps)
                .map(|k| from + (to - from) * k as f64 / (*steps - 1) as f64)
                .collect();
            let with_profile = profiler.is_some();
            let points = parallel_map(common.jobs, rates, |rate| {
                let run = RunConfig::new(*benchmark, rate)?
                    .with_phases(phases_for(*benchmark, common))
                    .with_shards(common.shards)
                    .with_profile(with_profile);
                let mut report = net.run(&run)?;
                let mean = report
                    .latency
                    .mean()
                    .map_or("-".to_string(), |d| d.to_string());
                let p99 = report
                    .latency
                    .p99()
                    .map_or("-".to_string(), |d| d.to_string());
                Ok::<_, SimError>((rate, mean, p99, report.acceptance(), report.profile.take()))
            });
            for point in points {
                let (rate, mean, p99, acceptance, profile) = point?;
                if let (Some(profiler), Some(profile)) = (profiler.as_mut(), &profile) {
                    profiler.add_run(
                        crate::metrics::config_json(
                            Some(&arch.to_string()),
                            *benchmark,
                            rate,
                            common,
                        ),
                        profile,
                    );
                }
                writeln!(
                    out,
                    "{:<12.3} {:>14} {:>12} {:>11.0}%",
                    rate,
                    mean,
                    p99,
                    100.0 * acceptance
                )?;
            }
            if let Some(profiler) = profiler {
                profiler.finish()?;
            }
            Ok(())
        }
        Command::Metrics { .. } => crate::metrics::execute_metrics(command, out),
        Command::Analyze { .. } => crate::analyze::execute_analyze(command, out),
        Command::Faults { .. } => crate::faults::execute_faults(command, out),
        Command::Explore { .. } => crate::explore::execute_explore(command, out),
        Command::Watch { .. } => crate::watch::execute_watch(command, out),
        Command::Info { arch, size } => {
            let size =
                MotSize::new(*size).map_err(|e| CliError::Invalid(format!("--size: {e}")))?;
            writeln!(
                out,
                "Network size {size}: {} fanout + {} fanin nodes, {} levels",
                size.total_fanout_nodes(),
                size.total_fanin_nodes(),
                size.levels()
            )?;
            writeln!(out)?;
            writeln!(
                out,
                "{:<26} {:>10} {:>12} {:>14} {:>14}",
                "architecture", "addr bits", "spec nodes", "area (um^2)", "leakage (mW)"
            )?;
            let list: Vec<Architecture> = match arch {
                Some(a) => vec![*a],
                None => Architecture::ALL.to_vec(),
            };
            for a in list {
                let net = Network::new(NetworkConfig::new(size, a))?;
                writeln!(
                    out,
                    "{:<26} {:>10} {:>12} {:>14.0} {:>14.2}",
                    a.to_string(),
                    a.address_bits(size),
                    a.speculation_map(size).speculative_nodes(),
                    net.area_um2(),
                    net.leakage_mw()
                )?;
            }
            Ok(())
        }
    }
}

/// Parses and executes one whitespace-separated invocation, returning
/// what it wrote (test helper; panics on any failure).
#[cfg(test)]
pub(crate) fn run_cli(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let command = crate::args::parse(&args).expect("valid invocation");
    let mut out = Vec::new();
    execute(&command, &mut out).expect("command succeeds");
    String::from_utf8(out).expect("utf8 output")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    #[test]
    fn help_prints_usage() {
        let text = run_cli("help");
        assert!(text.contains("USAGE"));
        assert!(text.contains("OptHybridSpeculative"));
    }

    #[test]
    fn run_reports_measurements() {
        let text = run_cli(
            "run --arch OptHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 80 --measure-ns 600",
        );
        assert!(text.contains("packets measured"));
        assert!(text.contains("latency mean"));
        assert!(text.contains("power"));
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn seed_replication_reports_all_seeds_and_is_jobs_invariant() {
        let base = "run --arch Baseline --benchmark Shuffle --rate 0.3 --seeds 3 \
                    --warmup-ns 60 --measure-ns 400";
        let serial = run_cli(&format!("{base} --jobs 1"));
        assert!(serial.contains("3 seeds"));
        for seed in [42, 43, 44] {
            assert!(
                serial.contains(&seed.to_string()),
                "seed {seed} missing:\n{serial}"
            );
        }
        assert!(serial.contains("mean latency across seeds"));
        // Worker count must change wall-clock only, never the report.
        let parallel = run_cli(&format!("{base} --jobs 3"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_warns_when_saturated() {
        let text = run_cli(
            "run --arch Baseline --benchmark Uniform-random --rate 2.5 \
             --warmup-ns 80 --measure-ns 400",
        );
        assert!(text.contains("WARNING"), "saturated run must warn: {text}");
    }

    #[test]
    fn saturate_quick_reports_both_quantities() {
        let text = run_cli("saturate --arch Baseline --benchmark Hotspot --quick");
        assert!(text.contains("stable injected load"));
        assert!(text.contains("delivered plateau"));
        // Hotspot anchor: ~0.29 GF/s per source.
        assert!(text.contains("0.2"), "unexpected hotspot value: {text}");
    }

    #[test]
    fn sweep_prints_every_point() {
        let text = run_cli(
            "sweep --arch Baseline --benchmark Shuffle --from 0.2 --to 0.6 --steps 3 \
             --warmup-ns 60 --measure-ns 400",
        );
        assert!(text.contains("0.200"));
        assert!(text.contains("0.400"));
        assert!(text.contains("0.600"));
    }

    #[test]
    fn info_lists_all_architectures() {
        let text = run_cli("info --size 16");
        for arch in Architecture::ALL {
            assert!(text.contains(&arch.to_string()), "{arch} missing:\n{text}");
        }
        assert!(text.contains("20")); // 16x16 hybrid address bits
    }

    #[test]
    fn info_single_architecture() {
        let text = run_cli("info --arch OptAllSpeculative");
        assert!(text.contains("OptAllSpeculative"));
        assert!(!text.contains("BasicNonSpeculative"));
    }

    #[test]
    fn mesh_run_reports() {
        let text = run_cli(
            "run --substrate mesh --benchmark Uniform-random --rate 0.15 --size 4 \
             --warmup-ns 60 --measure-ns 500",
        );
        assert!(text.contains("4x4 mesh"));
        assert!(text.contains("mean hops"));
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn profiled_run_writes_the_document_and_leaves_stdout_unchanged() {
        use asynoc_telemetry::JsonValue;
        let mut path = std::env::temp_dir();
        path.push(format!(
            "asynoc-cli-profile-test-{}.json",
            std::process::id()
        ));
        let path = path.to_string_lossy().into_owned();
        let base = "run --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 \
                    --shards 2 --warmup-ns 40 --measure-ns 300";
        let plain = run_cli(base);
        let profiled = run_cli(&format!("{base} --profile {path}"));
        // The profile goes to its file only — stdout must stay
        // byte-identical (check.sh diffs exactly this).
        assert_eq!(plain, profiled);
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("profile file"))
            .expect("profile document is valid JSON");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(asynoc::probe::PROFILE_SCHEMA)
        );
        let runs = doc.get("runs").and_then(JsonValue::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        let shards = runs[0]
            .get("shards")
            .and_then(JsonValue::as_array)
            .expect("per-shard sections");
        assert_eq!(shards.len(), 2, "one section per shard");
        for shard in shards {
            assert!(
                shard.get("events").and_then(JsonValue::as_f64).unwrap() > 0.0,
                "both shards executed events"
            );
            assert!(
                shard
                    .get("barrier_wait")
                    .and_then(|h| h.get("count"))
                    .and_then(JsonValue::as_f64)
                    .unwrap()
                    > 0.0,
                "sharded runs wait at the window barrier"
            );
        }
        let imbalance = runs[0].get("imbalance").expect("imbalance summary");
        assert!(
            imbalance
                .get("event_ratio")
                .and_then(JsonValue::as_f64)
                .unwrap()
                >= 1.0
        );
    }

    fn profile_runs(line: &str, path: &str) -> usize {
        use asynoc_telemetry::JsonValue;
        run_cli(line);
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("profile file"))
            .expect("profile document is valid JSON");
        let _ = std::fs::remove_file(path);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(asynoc::probe::PROFILE_SCHEMA)
        );
        let runs = doc.get("runs").and_then(JsonValue::as_array).expect("runs");
        for run in runs {
            assert!(
                run.get("events").and_then(JsonValue::as_f64).unwrap() > 0.0
                    || run
                        .get("shards")
                        .and_then(JsonValue::as_array)
                        .is_some_and(|s| !s.is_empty()),
                "every runs[] entry carries engine counters"
            );
            assert!(
                run.get("config")
                    .and_then(|c| c.get("rate_gfs"))
                    .and_then(JsonValue::as_f64)
                    .is_some(),
                "every runs[] entry is keyed by its offered rate"
            );
        }
        runs.len()
    }

    #[test]
    fn profiled_saturate_collects_one_run_per_probe() {
        let path = std::env::temp_dir().join(format!(
            "asynoc-saturate-profile-{}.json",
            std::process::id()
        ));
        let path = path.to_string_lossy().into_owned();
        let runs = profile_runs(
            &format!("saturate --arch Baseline --benchmark Hotspot --quick --profile {path}"),
            &path,
        );
        // The bisection search always takes at least two probes (plus
        // the delivered-plateau run).
        assert!(runs >= 2, "expected >= 2 profiled probes, got {runs}");
    }

    #[test]
    fn profiled_sweep_collects_one_run_per_point() {
        let path =
            std::env::temp_dir().join(format!("asynoc-sweep-profile-{}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let runs = profile_runs(
            &format!(
                "sweep --arch Baseline --benchmark Shuffle --from 0.2 --to 0.4 --steps 3 \
                 --warmup-ns 60 --measure-ns 400 --profile {path}"
            ),
            &path,
        );
        assert_eq!(runs, 3, "one runs[] entry per sweep point");
    }

    #[test]
    fn streaming_leaves_every_substrate_and_command_unchanged() {
        use asynoc_telemetry::{fold_stream, JsonValue};
        let temp = |name: &str| {
            let path =
                std::env::temp_dir().join(format!("asynoc-seam-{}-{name}", std::process::id()));
            path.to_string_lossy().into_owned()
        };
        for (tag, fabric) in [
            (
                "mot",
                "--arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2",
            ),
            (
                "mesh",
                "--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4",
            ),
            (
                "vcmesh",
                "--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4",
            ),
        ] {
            let report = temp(&format!("{tag}-report.json"));
            for (command, tail) in [
                ("run", "--warmup-ns 40 --measure-ns 300".to_string()),
                (
                    "metrics",
                    format!("--warmup-ns 40 --measure-ns 300 --metrics-out {report}"),
                ),
                (
                    "faults",
                    format!("--warmup-ns 20 --measure-ns 150 --oracle --report-out {report}"),
                ),
            ] {
                let case = format!("{command} on {tag}");
                let base = format!("{command} {fabric} {tail}");
                let read_report = || match command {
                    "run" => String::new(),
                    _ => std::fs::read_to_string(&report).expect("report file"),
                };
                let plain = run_cli(&base);
                let plain_report = read_report();
                let stream_path = temp(&format!("{tag}-{command}.ndjson"));
                let streamed = run_cli(&format!("{base} --stream {stream_path}"));
                assert_eq!(plain, streamed, "{case}: --stream must not change stdout");
                assert_eq!(plain_report, read_report(), "{case}: nor the report");
                let stream = std::fs::read_to_string(&stream_path).expect("stream file");
                let _ = std::fs::remove_file(&stream_path);
                for record in ["head", "window", "end"] {
                    assert!(
                        stream.contains(&format!("\"type\":\"{record}\"")),
                        "{case}: stream lacks a {record} record"
                    );
                }
                let folded = fold_stream(&stream).expect("stream folds");
                match command {
                    "run" => assert!(
                        folded
                            .get("throughput")
                            .and_then(|t| t.get("delivered_gfs"))
                            .and_then(JsonValue::as_f64)
                            .unwrap()
                            > 0.0,
                        "{case}: end sections carry the scalar summary"
                    ),
                    "metrics" => assert_eq!(
                        folded.render_pretty(),
                        plain_report,
                        "{case}: the stream folds into the batch report"
                    ),
                    _ => {}
                }
            }
            let _ = std::fs::remove_file(&report);
        }
    }

    #[test]
    fn every_preset_run_is_bit_identical_to_its_map_form() {
        // The tentpole equivalence proof at the CLI surface: expressing
        // each of the paper's six architectures as an explicit speculation
        // map must reproduce the preset run byte-for-byte — headers,
        // percentiles, power, histogram, everything.
        let size = asynoc::MotSize::new(8).unwrap();
        let tail = "--benchmark Multicast5 --rate 0.2 --warmup-ns 40 --measure-ns 300";
        for arch in Architecture::ALL {
            let map = SpecMap::preset(arch, size).to_string();
            let preset = run_cli(&format!("run --arch {arch} {tail}"));
            let mapped = run_cli(&format!("run --spec-map {map} {tail}"));
            assert_eq!(preset, mapped, "{arch}: map form must be bit-identical");
        }
    }

    #[test]
    fn preset_named_spec_map_is_bit_identical_too() {
        let tail = "--benchmark Shuffle --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let preset = run_cli(&format!("run --arch OptHybridSpeculative {tail}"));
        for form in ["OptHybridSpeculative", "preset:OptHybridSpeculative"] {
            let mapped = run_cli(&format!("run --spec-map {form} {tail}"));
            assert_eq!(preset, mapped, "{form} must resolve to the preset run");
        }
    }

    #[test]
    fn custom_map_reports_its_canonical_identity_and_reproduces_itself() {
        // A placement with a node override is not a preset: the report
        // header carries the canonical map string, and feeding that string
        // back reproduces the run — every report names its own recipe.
        let tail = "--benchmark Multicast5 --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let custom = "levels:sp,ns,ns;node:0.1.0=ons";
        let first = run_cli(&format!("run --spec-map {custom} {tail}"));
        assert!(
            first.starts_with(custom),
            "header must carry the canonical map string:\n{first}"
        );
        let second = run_cli(&format!("run --spec-map {custom} {tail}"));
        assert_eq!(first, second);
    }

    #[test]
    fn json_spec_map_file_matches_the_text_form() {
        let path =
            std::env::temp_dir().join(format!("asynoc-spec-map-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        std::fs::write(
            &path,
            r#"{"levels": ["sp", "ns", "ns"],
                "nodes": [{"tree": 0, "level": 1, "index": 0, "kind": "ons"}]}"#,
        )
        .expect("spec-map file");
        let tail = "--benchmark Multicast5 --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let text = run_cli(&format!(
            "run --spec-map levels:sp,ns,ns;node:0.1.0=ons {tail}"
        ));
        let json = run_cli(&format!("run --spec-map @{path_str} {tail}"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(text, json, "@file JSON form must equal the text form");
    }

    #[test]
    fn json_preset_spec_map_file_matches_the_preset() {
        let path =
            std::env::temp_dir().join(format!("asynoc-spec-preset-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        std::fs::write(&path, r#"{"preset": "Baseline"}"#).expect("spec-map file");
        let tail = "--benchmark Shuffle --rate 0.2 --warmup-ns 40 --measure-ns 300";
        let preset = run_cli(&format!("run --arch Baseline {tail}"));
        let json = run_cli(&format!("run --spec-map @{path_str} {tail}"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(preset, json);
    }

    #[test]
    fn invalid_spec_maps_are_rejected_with_the_validation_detail() {
        let reject = |line: &str, needle: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let command = parse(&args).expect("parses");
            let mut out = Vec::new();
            let err = execute(&command, &mut out).unwrap_err().to_string();
            assert!(err.contains(needle), "{line}: {err}");
        };
        let tail = "--benchmark Shuffle --rate 0.2";
        // Wrong level count for an 8x8 (3 levels).
        reject(&format!("run --spec-map levels:sp,ns {tail}"), "level");
        // Speculating at the leaf level breaks delivery filtering.
        reject(&format!("run --spec-map levels:ns,ns,sp {tail}"), "leaf");
        // A speculative node whose children cannot throttle.
        reject(
            &format!("run --spec-map levels:ns,sp,ns;node:0.2.0=sp {tail}"),
            "leaf",
        );
        // Node coordinates outside the fabric.
        reject(
            &format!("run --spec-map levels:ns,ns,ns;node:9.0.0=sp {tail}"),
            "range",
        );
    }

    #[test]
    fn invalid_size_is_reported() {
        let args: Vec<String> = "info --size 12"
            .split_whitespace()
            .map(String::from)
            .collect();
        let command = parse(&args).expect("parses");
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("12"));
    }
}

//! End-to-end benchmark of the `asynoc` CLI pipelines.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mot64-run --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each workload is a pipeline of CLI commands (see `pipeline.rs`), run
//! in-process through `asynoc_cli::parse` + `asynoc_cli::execute` with
//! the argv a user types and the CLI's default shards and jobs. The
//! pipeline is repeated for `--seconds` and medians are reported.
//!
//! - `--trace 0` prints the end-to-end metrics: `events_per_s`,
//!   `peak_rss_mb` and `setup_s`.
//! - `--trace 1` prints the per-layer metrics of a traced replay that
//!   calls each layer crate directly (see `replay.rs`), plus
//!   `layers.coverage`: how much of the untraced wall time the layer
//!   spans explain.
//!
//! Every command of a seed's pipeline is one operation, counted once per
//! run however many timed passes repeat it, so `attempted` and `failed`
//! depend on the workload and seed alone, never on host speed. An
//! operation fails when it returns an error, when its output check
//! fails, or when a simulation ends with `packets_incomplete > 0`.
//! Every pass is checked; a repeat whose verdicts differ from the
//! seed's first pass makes the run incorrect. `correct` is false when an output check
//! fails, a command errors, or the replay does not reproduce the
//! end-to-end fingerprint; a stranded run is a failure that still
//! reports faithfully, so it leaves `correct` alone.
//!
//! The last stdout line is the result object; the lines before it carry
//! the host context and the simulated-statistics fingerprint.

mod host;
mod pipeline;
mod replay;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipeline::{
    agree, fingerprint_json, first_difference, Fingerprint, Pipeline, Verdict, Workload,
};
use replay::Replay;

// The `asynoc` binary installs the counting allocator, so users' runs
// pay for it; the in-process pipeline does too.
#[global_allocator]
static GLOBAL: asynoc::probe::CountingAlloc = asynoc::probe::CountingAlloc;

/// Where pipelines write their files, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

const USAGE: &str = "usage: asynoc-perfbench --workload <mot64-run|mot8-trace-analyze|\
vcmesh8-sat-stream|mesh8-sat-oracle> --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced replay: `(name, unit)`. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("kernel.queue_pops", "count"),
    ("kernel.queue_resizes", "count"),
    ("kernel.fallback_scans", "count"),
    ("kernel.depth_high_water", "count"),
    ("engine.shards", "count"),
    ("engine.windows", "count"),
    ("engine.barrier_wait_share", "ratio"),
    ("engine.event_ratio", "ratio"),
    ("engine.mailbox_msgs", "count"),
    ("engine.pool_hit_rate", "ratio"),
    ("engine.retry_share", "ratio"),
    ("engine.drain_share", "ratio"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.ns_per_event", "ns"),
    ("vcmesh.new_s", "s"),
    ("vcmesh.run_s", "s"),
    ("vcmesh.ns_per_event", "ns"),
    ("mesh.new_s", "s"),
    ("mesh.run_s", "s"),
    ("mesh.ns_per_event", "ns"),
    ("telemetry.observe_s", "s"),
    ("telemetry.render_metrics_s", "s"),
    ("telemetry.render_trace_s", "s"),
    ("telemetry.trace_lines", "count"),
    ("telemetry.trace_bytes", "bytes"),
    ("telemetry.parse_trace_s", "s"),
    ("telemetry.parse_ns_per_line", "ns"),
    ("telemetry.stream_bytes", "bytes"),
    ("telemetry.first_window_s", "s"),
    ("telemetry.fold_stream_s", "s"),
    ("analysis.span_forest_s", "s"),
    ("analysis.build_s", "s"),
    ("analysis.to_json_s", "s"),
    ("faults.outcome_s", "s"),
    ("faults.judge_s", "s"),
    ("faults.fired", "count"),
    ("layers.coverage", "ratio"),
    ("replay.valid", "bool"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Operations attempted and failed, and whether every output checked out.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: BTreeMap<String, u64>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            correct: true,
            ..Tally::default()
        }
    }

    /// Counts a seed's operations; called once per seed, on its first pass.
    fn add(&mut self, pipeline: &Pipeline, verdicts: &[Verdict]) {
        for (op, verdict) in pipeline.op_names().zip(verdicts) {
            self.attempted += 1;
            if verdict.failed() {
                self.failed += 1;
                self.note(format!("seed {} {op}: {verdict:?}", pipeline.seed()));
            }
            if verdict.incorrect() {
                self.correct = false;
            }
        }
    }

    /// Checks a repeat pass against the verdicts of the seed's first pass.
    fn repeat(&mut self, pipeline: &Pipeline, first: &[Verdict], verdicts: &[Verdict]) {
        for ((op, was), verdict) in pipeline.op_names().zip(first).zip(verdicts) {
            if verdict != was {
                self.invalid(format!(
                    "seed {} {op}: repeat pass gave {verdict:?}, first pass {was:?}",
                    pipeline.seed()
                ));
            }
        }
    }

    fn invalid(&mut self, note: String) {
        self.correct = false;
        self.note(note);
    }

    fn note(&mut self, note: String) {
        *self.notes.entry(note).or_default() += 1;
    }
}

/// Repeated end-to-end passes over one or more pipelines.
struct Passes {
    /// Host wall seconds of each pass.
    walls: Vec<f64>,
    /// What each pass's outputs expose.
    fingerprints: Vec<Fingerprint>,
    /// Which pipeline (seed) each pass ran.
    pipeline: Vec<usize>,
    /// Peak resident memory once every pipeline ran once, MiB.
    peak_rss_mb: f64,
}

/// Cycles through `pipelines` until `budget` is spent (at least one
/// pass per pipeline), stopping early when another pass would overrun it.
/// `between` runs before each pass, outside its wall time. Each seed's
/// operations are counted on its first pass; repeats are only checked.
///
/// Peak memory is read after the first cycle: the process peak only
/// ever grows, and later passes add allocator fragmentation that
/// depends on how many passes fit the budget rather than on the program.
fn run_passes(
    pipelines: &[Pipeline],
    budget: Duration,
    tally: &mut Tally,
    between: &mut dyn FnMut(),
) -> Passes {
    let started = Instant::now();
    let mut passes = Passes {
        walls: Vec::new(),
        fingerprints: Vec::new(),
        pipeline: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut first: Vec<Vec<Verdict>> = Vec::new();
    for index in (0..pipelines.len()).cycle() {
        between();
        let (wall, results) = pipelines[index].run();
        let (verdicts, fingerprint) = pipelines[index].check(&results);
        match first.get(index) {
            Some(was) => tally.repeat(&pipelines[index], was, &verdicts),
            None => {
                tally.add(&pipelines[index], &verdicts);
                first.push(verdicts);
            }
        }
        passes.walls.push(wall.as_secs_f64());
        passes.fingerprints.push(fingerprint);
        passes.pipeline.push(index);
        if passes.walls.len() < pipelines.len() {
            continue;
        }
        if passes.walls.len() == pipelines.len() {
            passes.peak_rss_mb = host::peak_rss_mib();
        }
        let typical = median(&mut passes.walls.clone());
        if started.elapsed().as_secs_f64() + typical > budget.as_secs_f64() {
            break;
        }
    }
    passes
}

/// Flags every pass the replay (of the first pipeline) does not
/// reproduce, and every pass that disagrees with an earlier pass of the
/// same seed. Returns whether the replay's numbers are valid.
///
/// The replay renders the metrics document with its own copy of the
/// CLI's document code; it must equal the file the first pipeline's last
/// pass wrote, byte for byte. A difference means that copy has drifted
/// from the CLI, so the replay's spans no longer time what the program
/// runs: the layer numbers are invalid, but the program's outputs are not
/// at fault and `correct` stands.
fn check_replay(pipeline: &Pipeline, passes: &Passes, replay: &Replay, tally: &mut Tally) -> bool {
    let mut valid = true;
    let mut first: BTreeMap<usize, &Fingerprint> = BTreeMap::new();
    for (fingerprint, &index) in passes.fingerprints.iter().zip(&passes.pipeline) {
        let reference = if index == 0 {
            &replay.fingerprint
        } else {
            *first.entry(index).or_insert(fingerprint)
        };
        if let Err(e) = agree(fingerprint, reference) {
            tally.invalid(format!("pass of seed offset {index} not reproduced: {e}"));
            valid = false;
        }
    }
    for problem in &replay.problems {
        tally.invalid(format!("replay: {problem}"));
        valid = false;
    }
    if let Some(doc) = &replay.metrics_doc {
        if let Some(at) = first_difference(doc.as_bytes(), &pipeline.output("metrics.json")) {
            tally.note(format!(
                "replay: its metrics document differs from the pipeline's at byte {at}"
            ));
            valid = false;
        }
    }
    valid
}

/// A run's metrics by name, the replay behind them, and its passes.
type Measured = (Vec<(&'static str, f64)>, Replay, Passes);

/// The set-up span (network and model) of the substrate a workload builds.
fn new_metric(workload: Workload) -> &'static str {
    match workload {
        Workload::Mot64Run | Workload::Mot8TraceAnalyze => "core.new_s",
        Workload::Vcmesh8SatStream => "vcmesh.new_s",
        Workload::Mesh8SatOracle => "mesh.new_s",
    }
}

fn untraced(pipelines: &[Pipeline], args: &Args, tally: &mut Tally) -> Result<Measured, String> {
    let mut setup = replay::SetupTimer::new(&pipelines[0].commands()[0])?;
    let budget = Duration::from_secs(args.seconds);
    let passes = run_passes(pipelines, budget, tally, &mut || setup.sample(3));
    // The replay is the same simulation with spans; it supplies the
    // event count that `run` and `faults` reports do not print.
    let replay = replay::replay(args.workload, pipelines[0].commands())?;
    check_replay(&pipelines[0], &passes, &replay, tally);
    // Each seed is timed by the median of its passes, and the rate is
    // the seeds' events over the sum of those medians: a run over several
    // seeds weighs each by the time it takes, as running them back to
    // back would, instead of letting the many short passes of a stranded
    // seed outvote the rest.
    let mut per_seed: BTreeMap<usize, (u64, Vec<f64>)> = BTreeMap::new();
    for ((wall, fingerprint), &index) in passes
        .walls
        .iter()
        .zip(&passes.fingerprints)
        .zip(&passes.pipeline)
    {
        let events = match fingerprint.get("events_processed") {
            Some(&events) => events,
            None if index == 0 => replay.events,
            None => return Err("no event count for a rotated seed".into()),
        };
        let seed = per_seed.entry(index).or_insert((events, Vec::new()));
        seed.1.push(*wall);
    }
    let events: u64 = per_seed.values().map(|(events, _)| events).sum();
    let wall: f64 = per_seed.values_mut().map(|(_, walls)| median(walls)).sum();
    let metrics = vec![
        ("events_per_s", events as f64 / wall),
        ("peak_rss_mb", passes.peak_rss_mb),
        ("setup_s", setup.median()),
    ];
    Ok((metrics, replay, passes))
}

fn traced(pipeline: &Pipeline, args: &Args, tally: &mut Tally) -> Result<Measured, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut setup = replay::SetupTimer::new(&pipeline.commands()[0])?;
    let passes = run_passes(
        std::slice::from_ref(pipeline),
        budget / 2,
        tally,
        &mut || setup.sample(3),
    );
    let mut replays = Vec::new();
    loop {
        replays.push(replay::replay(args.workload, pipeline.commands())?);
        if started.elapsed() >= budget {
            break;
        }
    }
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut pipeline_s = Vec::new();
    let mut valid = true;
    for r in &replays {
        for (name, value) in &r.layers {
            layers.entry(name).or_default().push(*value);
        }
        pipeline_s.push(r.pipeline_s);
        if r.fingerprint != replays[0].fingerprint {
            tally.invalid("replays of one seed disagree".into());
            valid = false;
        }
    }
    let first = replays.swap_remove(0);
    valid &= check_replay(pipeline, &passes, &first, tally);
    let coverage = median(&mut pipeline_s) / median(&mut passes.walls.clone());
    let new_name = new_metric(args.workload);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "layers.coverage" => coverage,
                "replay.valid" => f64::from(u8::from(valid)),
                _ if name == new_name => setup.median(),
                _ => layers.get_mut(name).map_or(0.0, |v| median(v)),
            };
            (name, value)
        })
        .collect();
    Ok((metrics, first, passes))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A run's scratch directory, removed however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work = WorkDir(PathBuf::from(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    // The traced run measures layers of one seed; only the end-to-end
    // run rotates through the workload's seeds.
    let seeds = if args.trace {
        1
    } else {
        args.workload.seeds_per_run()
    };
    let pipelines = (0..seeds)
        .map(|k| {
            let seed = args.seed + k;
            Pipeline::new(args.workload, seed, &work.0.join(seed.to_string()), None)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pipeline = &pipelines[0];
    let mut tally = Tally::new();
    let (metrics, replay, passes) = if args.trace {
        traced(pipeline, args, &mut tally)?
    } else {
        untraced(&pipelines, args, &mut tally)?
    };

    let common = replay::common_of(&pipeline.commands()[0]).ok_or("no simulation command")?;
    println!(
        "context {{\"workload\": \"{}\", \"seeds\": [{}, {}], \"nproc\": {}, \"cli_shards\": {}, \
         \"cli_jobs\": {}, \"run_shards\": {}, \"passes\": {}, \"git_sha\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seed + seeds - 1,
        host::nproc(),
        common.shards,
        common.jobs,
        replay.run_shards,
        passes.walls.len(),
        host::git_sha(),
    );
    let walls: Vec<String> = passes.walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("pass_walls_s [{}]", walls.join(", "));
    println!("fingerprint {}", fingerprint_json(&replay.fingerprint));
    if let Some(e2e) = passes.fingerprints.first() {
        println!("e2e_fingerprint {}", fingerprint_json(e2e));
    }
    for (note, count) in &tally.notes {
        println!("failure x{count}: {note}");
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(*value),
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_telemetry::JsonValue;
    use std::path::Path;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn args_require_every_flag() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from));
        let args = parse("--workload mot64-run --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::Mot64Run);
        assert!(args.trace);
        assert!(parse("--workload mot64-run --seed 3 --seconds 5").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload mot64-run --seed 3 --seconds 5 --trace 2").is_err());
    }

    #[test]
    fn repeat_passes_are_checked_but_not_counted() {
        let work =
            WorkDir(PathBuf::from(WORK_DIR).join(format!("test-tally-{}", std::process::id())));
        let pipeline = Pipeline::new(Workload::Vcmesh8SatStream, 4, &work.0, None).unwrap();
        let stranded = [Verdict::Stranded(5153), Verdict::Pass];
        let mut tally = Tally::new();
        tally.add(&pipeline, &stranded);
        tally.repeat(&pipeline, &stranded, &stranded);
        tally.repeat(&pipeline, &stranded, &stranded);
        assert_eq!((tally.attempted, tally.failed, tally.correct), (2, 1, true));
        let drained = [Verdict::Pass, Verdict::Pass];
        tally.repeat(&pipeline, &stranded, &drained);
        assert_eq!(
            (tally.attempted, tally.failed, tally.correct),
            (2, 1, false)
        );
    }

    /// Short windows keep every workload fast; the replay must still
    /// reproduce what the CLI's outputs expose, exactly.
    #[test]
    fn replay_reproduces_the_end_to_end_fingerprint_of_every_workload() {
        let windows = pipeline::Windows {
            warmup_ns: 20,
            measure_ns: 200,
        };
        for workload in Workload::ALL {
            let work = WorkDir(PathBuf::from(WORK_DIR).join(format!(
                "test-{}-{}",
                workload.name(),
                std::process::id()
            )));
            let pipeline = Pipeline::new(workload, 7, &work.0, Some(windows)).unwrap();
            let (_, results) = pipeline.run();
            let (verdicts, e2e) = pipeline.check(&results);
            assert!(
                verdicts.iter().all(|v| !v.incorrect()),
                "{}: {verdicts:?}",
                workload.name()
            );
            let replay = replay::replay(workload, pipeline.commands()).unwrap();
            assert!(!e2e.is_empty(), "{}", workload.name());
            assert_eq!(
                agree(&e2e, &replay.fingerprint),
                Ok(()),
                "{}",
                workload.name()
            );
            assert!(replay.problems.is_empty(), "{:?}", replay.problems);
            if let Some(doc) = &replay.metrics_doc {
                assert_eq!(
                    first_difference(doc.as_bytes(), &pipeline.output("metrics.json")),
                    None,
                    "{}: replayed metrics document",
                    workload.name()
                );
            }
            assert!(replay.events > 0);
        }
    }
}

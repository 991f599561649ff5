//! The four workloads as a user runs them: the argv typed at the shell,
//! executed in-process through `asynoc_cli::parse` + `asynoc_cli::execute`,
//! and the checks on what each command wrote.
//!
//! No workload passes `--shards` or `--jobs`: the defaults users get are
//! what is measured. Windows are the CLI default (paper standard) unless
//! a test asks for short ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use asynoc_cli::Command;
use asynoc_telemetry::JsonValue;

/// Simulated statistics that identify a run exactly: two commits that
/// simulate the same thing print the same fingerprint.
pub type Fingerprint = BTreeMap<&'static str, u64>;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `run` on the 64x64 MoT at light load.
    Mot64Run,
    /// `metrics --trace-out` then `analyze` on the 8x8 MoT.
    Mot8TraceAnalyze,
    /// `metrics --stream` on the DPM VC mesh at saturation, then `watch --fold`.
    Vcmesh8SatStream,
    /// `faults --oracle` on the plain mesh at saturation.
    Mesh8SatOracle,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Mot64Run,
        Workload::Mot8TraceAnalyze,
        Workload::Vcmesh8SatStream,
        Workload::Mesh8SatOracle,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mot64Run => "mot64-run",
            Workload::Mot8TraceAnalyze => "mot8-trace-analyze",
            Workload::Vcmesh8SatStream => "vcmesh8-sat-stream",
            Workload::Mesh8SatOracle => "mesh8-sat-oracle",
        }
    }

    /// Consecutive seeds, from the workload seed up, one end-to-end run
    /// cycles through.
    ///
    /// DPM on the saturated VC mesh strands packets on some seeds (5 of
    /// seeds 0-12) and a stranded run simulates a fraction of the events,
    /// so the memory and throughput of a single seed swing with whether
    /// it strands. Four seeds per run keep both steady while the
    /// stranded passes still count as failures in every run that meets
    /// one.
    pub fn seeds_per_run(self) -> u64 {
        match self {
            Workload::Vcmesh8SatStream => 4,
            _ => 1,
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulated-time windows overriding the paper-standard default (tests
/// use short ones to keep runs fast).
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Warmup window, ns.
    pub warmup_ns: u64,
    /// Measurement window, ns.
    pub measure_ns: u64,
}

/// What one command of a pipeline amounted to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Returned `Ok`, its outputs passed their checks, and every
    /// simulation drained.
    Pass,
    /// Outputs are well formed but a simulation ended with measured
    /// packets still undelivered.
    Stranded(u64),
    /// An output check failed.
    CheckFailed(String),
    /// The command returned an error.
    Errored(String),
}

impl Verdict {
    /// Counts against the attempted operations.
    pub fn failed(&self) -> bool {
        *self != Verdict::Pass
    }

    /// The outputs cannot be trusted (a stranded run still reports
    /// faithfully, so it is a failure but not an incorrect output).
    pub fn incorrect(&self) -> bool {
        matches!(self, Verdict::CheckFailed(_) | Verdict::Errored(_))
    }
}

/// One command's result and captured standard output.
pub type StepResult = (Result<(), String>, Vec<u8>);

/// A workload's commands, ready to run in a scratch directory.
pub struct Pipeline {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    argvs: Vec<Vec<String>>,
    commands: Vec<Command>,
}

impl Pipeline {
    /// Builds the workload's argv for `seed`, writing its files under
    /// `dir` (created if missing).
    pub fn new(
        workload: Workload,
        seed: u64,
        dir: &Path,
        windows: Option<Windows>,
    ) -> Result<Pipeline, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let mut sim: Vec<String> = match workload {
            Workload::Mot64Run => {
                words("run --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --size 64")
            }
            Workload::Mot8TraceAnalyze => {
                let mut argv = words(
                    "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3",
                );
                argv.extend([
                    "--metrics-out".into(),
                    file("metrics.json"),
                    "--trace-out".into(),
                    file("trace.ndjson"),
                ]);
                argv
            }
            Workload::Vcmesh8SatStream => {
                let mut argv = words(
                    "metrics --substrate vcmesh --mcast dpm --benchmark Multicast10 --rate 0.2 \
                     --size 8",
                );
                argv.extend([
                    "--metrics-out".into(),
                    file("metrics.json"),
                    "--stream".into(),
                    file("stream.ndjson"),
                ]);
                argv
            }
            Workload::Mesh8SatOracle => {
                let mut argv = words(
                    "faults --substrate mesh --benchmark Uniform-random --rate 0.3 --size 8 \
                     --oracle",
                );
                argv.extend(["--report-out".into(), file("faults.json")]);
                argv
            }
        };
        sim.extend(["--seed".into(), seed.to_string()]);
        if let Some(w) = windows {
            sim.extend([
                "--warmup-ns".into(),
                w.warmup_ns.to_string(),
                "--measure-ns".into(),
                w.measure_ns.to_string(),
            ]);
        }
        let mut argvs = vec![sim];
        match workload {
            Workload::Mot8TraceAnalyze => argvs.push(vec![
                "analyze".into(),
                "--trace-in".into(),
                file("trace.ndjson"),
                "--report-out".into(),
                file("analysis.json"),
            ]),
            Workload::Vcmesh8SatStream => argvs.push(vec![
                "watch".into(),
                "--stream-in".into(),
                file("stream.ndjson"),
                "--once".into(),
                "--fold".into(),
                file("folded.json"),
            ]),
            Workload::Mot64Run | Workload::Mesh8SatOracle => {}
        }
        let commands = argvs
            .iter()
            .map(|argv| asynoc_cli::parse(argv).map_err(|e| format!("{}: {e}", argv.join(" "))))
            .collect::<Result<_, _>>()?;
        Ok(Pipeline {
            workload,
            seed,
            dir: dir.to_path_buf(),
            argvs,
            commands,
        })
    }

    /// The seed every command runs with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The subcommand of each operation (`run`, `metrics`, ...).
    pub fn op_names(&self) -> impl Iterator<Item = &str> {
        self.argvs.iter().map(|argv| argv[0].as_str())
    }

    /// The parsed commands (the replay derives every setting from them).
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// What the last pass wrote to the output file `name` (empty when it
    /// wrote nothing there).
    pub fn output(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(name)).unwrap_or_default()
    }

    /// Runs every command once, exactly as the shell would hand the argv
    /// over, and returns the host wall time of the whole pipeline plus
    /// each command's result and captured output.
    pub fn run(&self) -> (Duration, Vec<StepResult>) {
        // Stale outputs of an earlier pass must not satisfy a check.
        for name in OUTPUT_FILES {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        let started = Instant::now();
        let results = self
            .argvs
            .iter()
            .map(|argv| {
                let mut out = Vec::new();
                let result =
                    asynoc_cli::parse(argv)
                        .map_err(|e| e.to_string())
                        .and_then(|command| {
                            asynoc_cli::execute(&command, &mut out).map_err(|e| e.to_string())
                        });
                (result, out)
            })
            .collect();
        (started.elapsed(), results)
    }

    /// Judges one pass: a verdict per command and the simulated
    /// statistics the outputs expose.
    pub fn check(&self, results: &[StepResult]) -> (Vec<Verdict>, Fingerprint) {
        let read = |name: &str| self.output(name);
        let text = |name: &str| String::from_utf8_lossy(&read(name)).into_owned();
        let (mut verdicts, fingerprint) = match self.workload {
            Workload::Mot64Run => {
                let (verdict, fp) = classify_run(&String::from_utf8_lossy(&results[0].1));
                (vec![verdict], fp)
            }
            Workload::Mot8TraceAnalyze => {
                let (verdict, fp) = classify_metrics(&text("metrics.json"));
                (vec![verdict, classify_analysis(&text("analysis.json"))], fp)
            }
            Workload::Vcmesh8SatStream => {
                let (verdict, fp) = classify_metrics(&text("metrics.json"));
                let fold = classify_fold(&read("folded.json"), &read("metrics.json"));
                (vec![verdict, fold], fp)
            }
            Workload::Mesh8SatOracle => {
                let (verdict, fp) = classify_faults(&text("faults.json"));
                (vec![verdict], fp)
            }
        };
        for (verdict, (result, _)) in verdicts.iter_mut().zip(results) {
            if let Err(e) = result {
                *verdict = Verdict::Errored(e.clone());
            }
        }
        (verdicts, fingerprint)
    }
}

const OUTPUT_FILES: [&str; 6] = [
    "metrics.json",
    "trace.ndjson",
    "analysis.json",
    "stream.ndjson",
    "folded.json",
    "faults.json",
];

fn words(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// Checks `asynoc run`'s text report and reads its fingerprint: packet
/// count, p50/p99 at the printed precision, and the stranded count the
/// `WARNING` line carries (absent = 0).
pub fn classify_run(stdout: &str) -> (Verdict, Fingerprint) {
    let field = |label: &str| {
        stdout
            .lines()
            .find_map(|l| l.trim_start().strip_prefix(label))
            .and_then(|rest| rest.trim_start().strip_prefix(':'))
            .map(str::trim)
    };
    let mut fp = Fingerprint::new();
    let Some(measured) = field("packets measured").and_then(|v| v.parse().ok()) else {
        return (
            Verdict::CheckFailed("run report has no `packets measured` line".into()),
            fp,
        );
    };
    fp.insert("packets_measured", measured);
    // "2.697 ns / 5.677 ns (max 10.091 ns)"
    let quantiles = field("latency p50/p99").and_then(|v| {
        let (p50, rest) = v.split_once(" / ")?;
        let p99 = rest.split(" (").next()?;
        Some((parse_display_ps(p50)?, parse_display_ps(p99)?))
    });
    let Some((p50, p99)) = quantiles else {
        return (
            Verdict::CheckFailed("run report has no readable `latency p50/p99` line".into()),
            fp,
        );
    };
    fp.insert("p50_ps", p50);
    fp.insert("p99_ps", p99);
    // "WARNING          : 31 packets never completed (saturated?)"
    let incomplete = stdout
        .lines()
        .filter(|l| l.contains("never completed"))
        .find_map(|l| l.split(':').nth(1)?.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    fp.insert("packets_incomplete", incomplete);
    (stranded_or_pass(incomplete), fp)
}

/// Reads a duration as `asynoc` prints it (`"812 ps"`, `"2.697 ns"`,
/// `"1.204 us"`) back into picoseconds.
pub fn parse_display_ps(text: &str) -> Option<u64> {
    let (number, unit) = text.trim().split_once(' ')?;
    let scale = match unit {
        "ps" => 1.0,
        "ns" => 1e3,
        "us" => 1e6,
        _ => return None,
    };
    let value: f64 = number.parse().ok()?;
    Some((value * scale).round() as u64)
}

/// The same rounding the CLI's text report applies, so a library-side
/// value compares exactly with the printed one.
pub fn display_ps(ps: u64) -> u64 {
    parse_display_ps(&asynoc::Duration::from_ps(ps).to_string()).expect("Duration display parses")
}

/// Checks an `asynoc-metrics-v1` document and reads its fingerprint.
pub fn classify_metrics(text: &str) -> (Verdict, Fingerprint) {
    let doc = match JsonValue::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return (
                Verdict::CheckFailed(format!("metrics document does not parse: {e}")),
                Fingerprint::new(),
            )
        }
    };
    match metrics_fingerprint(&doc) {
        Some(fp) => (stranded_or_pass(fp["packets_incomplete"]), fp),
        None => (
            Verdict::CheckFailed("metrics document lacks counters or latency".into()),
            Fingerprint::new(),
        ),
    }
}

/// The fingerprint of a metrics document: its counters plus the overall
/// latency quantiles (a run with no samples reads 0).
pub fn metrics_fingerprint(doc: &JsonValue) -> Option<Fingerprint> {
    let counters = doc.get("counters")?;
    let latency = doc.get("latency")?;
    let mut fp = Fingerprint::new();
    for key in [
        "events_processed",
        "packets_measured",
        "packets_incomplete",
        "flits_delivered",
    ] {
        fp.insert(key, uint(counters.get(key)?)?);
    }
    for key in ["p50_ps", "p99_ps"] {
        fp.insert(key, latency.get(key).and_then(uint).unwrap_or(0));
    }
    Some(fp)
}

/// Checks that `asynoc analyze` wrote a parseable report.
pub fn classify_analysis(text: &str) -> Verdict {
    match JsonValue::parse(text) {
        Ok(doc) if doc.get("schema").is_some() => Verdict::Pass,
        Ok(_) => Verdict::CheckFailed("analysis report has no schema".into()),
        Err(e) => Verdict::CheckFailed(format!("analysis report does not parse: {e}")),
    }
}

/// Checks that the folded stream reproduces the batch metrics document
/// byte for byte.
pub fn classify_fold(folded: &[u8], batch: &[u8]) -> Verdict {
    if folded.is_empty() {
        return Verdict::CheckFailed("no folded document".into());
    }
    match first_difference(folded, batch) {
        None => Verdict::Pass,
        Some(at) => Verdict::CheckFailed(format!(
            "folded stream differs from the batch metrics document at byte {at}"
        )),
    }
}

/// The offset of the first byte where `a` and `b` differ, `None` when
/// they are equal.
pub fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    if a == b {
        return None;
    }
    Some(
        a.iter()
            .zip(b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len())),
    )
}

/// Checks an `asynoc-faults-v1` report: the oracle verdict must pass and
/// both twins must drain.
pub fn classify_faults(text: &str) -> (Verdict, Fingerprint) {
    let doc = match JsonValue::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return (
                Verdict::CheckFailed(format!("fault report does not parse: {e}")),
                Fingerprint::new(),
            )
        }
    };
    let Some(fp) = faults_fingerprint(&doc) else {
        return (
            Verdict::CheckFailed("fault report lacks the faulted/clean/oracle sections".into()),
            Fingerprint::new(),
        );
    };
    if fp["oracle.pass"] != 1 {
        return (
            Verdict::CheckFailed("fault oracle verdict fails".into()),
            fp,
        );
    }
    let stranded = fp["faulted.packets_incomplete"] + fp["clean.packets_incomplete"];
    (stranded_or_pass(stranded), fp)
}

/// The fingerprint of a fault report: each twin's outcome, how many
/// faults fired, and the oracle verdict (1 = pass).
pub fn faults_fingerprint(doc: &JsonValue) -> Option<Fingerprint> {
    let mut fp = Fingerprint::new();
    for (twin, incomplete, mean, deliveries) in [
        (
            "faulted",
            "faulted.packets_incomplete",
            "faulted.mean_latency_ps",
            "faulted.deliveries",
        ),
        (
            "clean",
            "clean.packets_incomplete",
            "clean.mean_latency_ps",
            "clean.deliveries",
        ),
    ] {
        let section = doc.get(twin)?;
        fp.insert(incomplete, uint(section.get("packets_incomplete")?)?);
        fp.insert(deliveries, uint(section.get("deliveries")?)?);
        if let Some(ps) = section.get("mean_latency_ps").and_then(uint) {
            fp.insert(mean, ps);
        }
    }
    let summary = doc.get("faulted")?.get("summary")?;
    let fired = ["stalls", "corrupted", "stuck", "drops", "lost"]
        .iter()
        .map(|k| summary.get(k).and_then(uint))
        .sum::<Option<u64>>()?;
    fp.insert("faults.fired", fired);
    let pass = doc.get("oracle")?.get("pass")? == &JsonValue::Bool(true);
    fp.insert("oracle.pass", u64::from(pass));
    Some(fp)
}

fn uint(value: &JsonValue) -> Option<u64> {
    value
        .as_f64()
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
}

fn stranded_or_pass(incomplete: u64) -> Verdict {
    if incomplete > 0 {
        Verdict::Stranded(incomplete)
    } else {
        Verdict::Pass
    }
}

/// Every key the end-to-end run exposes must be reproduced exactly by
/// the replay (which may know more, e.g. `events_processed` for `run`).
pub fn agree(e2e: &Fingerprint, replay: &Fingerprint) -> Result<(), String> {
    for (key, value) in e2e {
        match replay.get(key) {
            Some(v) if v == value => {}
            Some(v) => return Err(format!("{key}: end-to-end {value}, replay {v}")),
            None => return Err(format!("{key}: missing from the replay")),
        }
    }
    Ok(())
}

/// Renders a fingerprint as one JSON object.
pub fn fingerprint_json(fp: &Fingerprint) -> String {
    JsonValue::Object(
        fp.iter()
            .map(|(k, v)| ((*k).to_string(), JsonValue::uint(*v)))
            .collect(),
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRAINED_RUN: &str = "\
OptHybridSpeculative (64x64) x Multicast5 @ 0.2 flits/ns per source
  packets measured : 7951
  latency mean     : 2.974 ns
  latency p50/p99  : 2.697 ns / 5.677 ns (max 10.091 ns)
  throughput       : offered 0.194 / injected 0.194 / delivered 0.501 GF/s per source
";

    #[test]
    fn drained_run_passes_with_its_fingerprint() {
        let (verdict, fp) = classify_run(DRAINED_RUN);
        assert_eq!(verdict, Verdict::Pass);
        assert_eq!(fp["packets_measured"], 7951);
        assert_eq!(fp["p50_ps"], 2697);
        assert_eq!(fp["p99_ps"], 5677);
        assert_eq!(fp["packets_incomplete"], 0);
    }

    #[test]
    fn stranded_run_fails_but_stays_correct() {
        let text = DRAINED_RUN.replace(
            "  latency mean",
            "  WARNING          : 31 packets never completed (saturated?)\n  latency mean",
        );
        let (verdict, fp) = classify_run(&text);
        assert_eq!(verdict, Verdict::Stranded(31));
        assert!(verdict.failed() && !verdict.incorrect());
        assert_eq!(fp["packets_incomplete"], 31);
    }

    #[test]
    fn acceptance_warning_alone_is_not_a_strand() {
        let text = DRAINED_RUN.replace(
            "  latency mean",
            "  WARNING          : only 80% of offered load accepted — past saturation\n  latency mean",
        );
        assert_eq!(classify_run(&text).0, Verdict::Pass);
    }

    #[test]
    fn garbled_run_output_is_a_check_failure() {
        let (verdict, _) = classify_run("nothing useful");
        assert!(verdict.incorrect());
    }

    fn metrics_doc(incomplete: u64) -> String {
        format!(
            r#"{{"schema": "asynoc-metrics-v1",
                "latency": {{"count": 10, "p50_ps": 1439, "p99_ps": 7167}},
                "counters": {{"packets_measured": 10, "packets_incomplete": {incomplete},
                              "flits_throttled": 0, "flits_delivered": 50,
                              "events_processed": 1234, "shards": 2}}}}"#
        )
    }

    #[test]
    fn drained_metrics_document_passes() {
        let (verdict, fp) = classify_metrics(&metrics_doc(0));
        assert_eq!(verdict, Verdict::Pass);
        assert_eq!(fp["events_processed"], 1234);
        assert_eq!(fp["p99_ps"], 7167);
    }

    #[test]
    fn stranded_metrics_document_fails() {
        assert_eq!(
            classify_metrics(&metrics_doc(5153)).0,
            Verdict::Stranded(5153)
        );
    }

    #[test]
    fn unparseable_documents_are_check_failures() {
        assert!(classify_metrics("{\"counters\": ").0.incorrect());
        assert!(classify_analysis("").incorrect());
        assert_eq!(classify_analysis("{\"schema\": \"x\"}"), Verdict::Pass);
    }

    #[test]
    fn fold_mismatch_is_located() {
        assert_eq!(classify_fold(b"{\"a\": 1}", b"{\"a\": 1}"), Verdict::Pass);
        let verdict = classify_fold(b"{\"a\": 2}", b"{\"a\": 1}");
        assert_eq!(
            verdict,
            Verdict::CheckFailed(
                "folded stream differs from the batch metrics document at byte 6".into()
            )
        );
        assert!(classify_fold(b"", b"{}").incorrect());
    }

    fn fault_report(pass: bool, faulted_incomplete: u64) -> String {
        format!(
            r#"{{"faulted": {{"summary": {{"stalls": 23, "corrupted": 0, "stuck": 0, "drops": 8, "lost": 0}},
                             "deliveries": 900, "mean_latency_ps": 5000,
                             "packets_incomplete": {faulted_incomplete}}},
                "clean": {{"summary": {{"stalls": 0, "corrupted": 0, "stuck": 0, "drops": 0, "lost": 0}},
                           "deliveries": 900, "mean_latency_ps": 4800, "packets_incomplete": 0}},
                "oracle": {{"pass": {pass}}}}}"#
        )
    }

    #[test]
    fn passing_oracle_with_drained_twins_passes() {
        let (verdict, fp) = classify_faults(&fault_report(true, 0));
        assert_eq!(verdict, Verdict::Pass);
        assert_eq!(fp["faults.fired"], 31);
        assert_eq!(fp["clean.mean_latency_ps"], 4800);
    }

    #[test]
    fn failing_oracle_is_a_check_failure() {
        let (verdict, _) = classify_faults(&fault_report(false, 0));
        assert_eq!(
            verdict,
            Verdict::CheckFailed("fault oracle verdict fails".into())
        );
    }

    #[test]
    fn stranded_twin_fails_the_operation() {
        assert_eq!(
            classify_faults(&fault_report(true, 4)).0,
            Verdict::Stranded(4)
        );
    }

    #[test]
    fn display_rounding_round_trips() {
        assert_eq!(parse_display_ps("812 ps"), Some(812));
        assert_eq!(parse_display_ps("2.697 ns"), Some(2697));
        assert_eq!(parse_display_ps("1.204 us"), Some(1_204_000));
        assert_eq!(display_ps(2697), 2697);
        assert_eq!(display_ps(1_204_321), 1_204_000);
    }

    #[test]
    fn replay_may_know_more_but_must_match_what_both_know() {
        let e2e = Fingerprint::from([("p50_ps", 10)]);
        let mut replay = Fingerprint::from([("p50_ps", 10), ("events_processed", 99)]);
        assert!(agree(&e2e, &replay).is_ok());
        replay.insert("p50_ps", 11);
        assert!(agree(&e2e, &replay).is_err());
        assert!(agree(&Fingerprint::from([("x", 1)]), &Fingerprint::new()).is_err());
    }
}

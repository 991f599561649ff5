//! `asynoc faults`: one deterministic fault-injection run emitting the
//! JSON fault report — and, with `--oracle`, the differential
//! conformance verdict against a clean twin under the same seed.
//!
//! The command is the CLI surface of `asynoc-faults`: a plan either
//! replays from its compact text encoding (`--plan`) or is drawn,
//! recoverable-only, from the substrate's certified fault domain
//! (`--seed` x `--fault-rate`). A failing oracle exits non-zero with
//! the violated checks and the exact replay line, so CI gates on it
//! directly.

use std::io::Write;

use asynoc::{Architecture, Observer};
use asynoc_faults::{
    judge, replay_command, FaultDomain, FaultPlan, OracleVerdict, RunOutcome, FAULTS_SCHEMA,
};
use asynoc_telemetry::JsonValue;
use asynoc_vcmesh::McastScheme;

use crate::args::{Command, Substrate};
use crate::commands::CliError;
use crate::metrics::config_json;
use crate::profile::ProfileWriter;
use crate::substrate::{Fabric, Job, Load};

fn plan_json(plan: &FaultPlan, domain: &FaultDomain) -> JsonValue {
    JsonValue::Object(vec![
        ("encoded".to_string(), JsonValue::str(plan.encode())),
        (
            "entries".to_string(),
            JsonValue::uint(plan.entries.len() as u64),
        ),
        (
            "recoverable".to_string(),
            JsonValue::Bool(plan.recoverable(domain)),
        ),
        (
            "delay_budget_ps".to_string(),
            JsonValue::uint(plan.delay_budget_ps()),
        ),
    ])
}

fn outcome_json(outcome: &RunOutcome) -> JsonValue {
    let summary = &outcome.summary;
    JsonValue::Object(vec![
        (
            "summary".to_string(),
            JsonValue::Object(vec![
                ("stalls".to_string(), JsonValue::uint(summary.stalls)),
                ("corrupted".to_string(), JsonValue::uint(summary.corrupted)),
                ("stuck".to_string(), JsonValue::uint(summary.stuck)),
                ("drops".to_string(), JsonValue::uint(summary.drops)),
                ("lost".to_string(), JsonValue::uint(summary.lost)),
            ]),
        ),
        ("ledger".to_string(), outcome.ledger.to_json()),
        (
            "deliveries".to_string(),
            JsonValue::uint(outcome.deliveries.values().sum::<u64>()),
        ),
        (
            "mean_latency_ps".to_string(),
            outcome
                .mean_latency_ps
                .map_or(JsonValue::Null, JsonValue::uint),
        ),
        (
            "packets_incomplete".to_string(),
            JsonValue::uint(outcome.packets_incomplete as u64),
        ),
        (
            "analysis".to_string(),
            JsonValue::Object(vec![
                (
                    "fault_affected_trees".to_string(),
                    JsonValue::uint(outcome.fault_affected_trees as u64),
                ),
                (
                    "broken_trees".to_string(),
                    JsonValue::uint(outcome.broken_trees as u64),
                ),
                (
                    "broken_with_cause".to_string(),
                    JsonValue::uint(outcome.broken_with_cause as u64),
                ),
            ]),
        ),
    ])
}

/// The `faults` command body, generic over the fabric.
struct Faults<'a> {
    command: &'a Command,
    out: &'a mut dyn Write,
}

impl Job for Faults<'_> {
    const NAME: &'static str = "faults";

    fn on<F: Fabric>(
        self,
        fabric: &F,
        mut profiler: Option<ProfileWriter>,
    ) -> Result<(), CliError> {
        let Command::Faults {
            benchmark,
            rate,
            substrate,
            mcast,
            plan,
            fault_rate,
            oracle,
            report_out,
            common,
            ..
        } = self.command
        else {
            unreachable!("dispatched on Command::Faults");
        };
        let domain = fabric.domain();
        let plan = match plan {
            Some(text) => {
                FaultPlan::parse(text).map_err(|e| CliError::Invalid(format!("--plan: {e}")))?
            }
            None => FaultPlan::random(common.seed, *fault_rate, &domain),
        };
        let load = Load::new(*benchmark, *rate, common);
        let config = config_json(fabric.identity(), *benchmark, *rate, common);

        // Only the faulted run is streamed: the clean twin stays
        // unobserved so the oracle's reference is untouched.
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
        let faulted = fabric.outcome(&load, Some(&plan), &mut extra)?;
        let watchpoints = crate::stream::finish(sink, JsonValue::Object(vec![]))?;
        let clean = oracle
            .then(|| fabric.outcome(&load, None, &mut []))
            .transpose()?;

        if let Some(profiler) = profiler.as_mut() {
            // One `runs[]` entry per simulation: the faulted run first,
            // then (under --oracle) its clean twin with the same keys.
            for outcome in std::iter::once(&faulted).chain(clean.as_ref()) {
                if let Some(profile) = &outcome.profile {
                    profiler.add_run(config.clone(), profile);
                }
            }
        }
        let verdict: Option<OracleVerdict> = clean
            .as_ref()
            .map(|clean| judge(clean, &faulted, &plan, &domain));

        let doc = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::str(FAULTS_SCHEMA)),
            ("substrate".to_string(), JsonValue::str(F::TAG)),
            ("config".to_string(), config),
            ("plan".to_string(), plan_json(&plan, &domain)),
            ("faulted".to_string(), outcome_json(&faulted)),
            (
                "clean".to_string(),
                clean.as_ref().map_or(JsonValue::Null, outcome_json),
            ),
            (
                "oracle".to_string(),
                verdict
                    .as_ref()
                    .map_or(JsonValue::Null, OracleVerdict::to_json),
            ),
        ]);
        let rendered = doc.render_pretty();
        match report_out {
            Some(path) => {
                std::fs::write(path, &rendered)?;
                writeln!(self.out, "fault report written to {path}")?;
            }
            // Bare stdout stays pure JSON so pipelines can parse it.
            None => self.out.write_all(rendered.as_bytes())?,
        }
        if let Some(profiler) = profiler {
            profiler.finish()?;
        }

        if let Some(verdict) = verdict.filter(|v| !v.pass()) {
            let failing: Vec<String> = verdict
                .failures()
                .iter()
                .map(|c| format!("{}: {}", c.name, c.detail))
                .collect();
            let placement = fabric.identity();
            let mut replay = replay_command(
                F::TAG,
                placement,
                &benchmark.to_string(),
                *rate,
                common.size,
                common.seed,
                &plan,
            );
            // A custom placement is not a preset name, so the replay's
            // placement flag must be `--spec-map`, not `--arch`.
            if placement.is_some_and(|p| p.parse::<Architecture>().is_err()) {
                replay = replay.replace(" --arch ", " --spec-map ");
            }
            // The shared replay line predates multicast schemes; a
            // non-default one is part of the run's identity.
            if *substrate == Substrate::Vcmesh && *mcast != McastScheme::default() {
                replay.push_str(&format!(" --mcast {mcast}"));
            }
            return Err(CliError::Invalid(format!(
                "fault oracle violated:\n  {}\nreplay: {replay}",
                failing.join("\n  ")
            )));
        }
        crate::stream::fatal_check(watchpoints, common)
    }
}

/// Executes a `faults` command: runs the (pair of) simulations, writes
/// the JSON report, and fails with the violated checks when the oracle
/// rejects the pair.
///
/// # Errors
///
/// Returns a [`CliError`] on simulation, plan, I/O, or oracle failure.
pub(crate) fn execute_faults(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    crate::substrate::dispatch(command, Faults { command, out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use crate::commands::execute;
    use crate::commands::run_cli;

    #[test]
    fn mot_oracle_run_emits_a_passing_report() {
        let doc = JsonValue::parse(&run_cli(
            "faults --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --size 8 --warmup-ns 20 --measure-ns 150 --oracle",
        ))
        .expect("fault report is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(FAULTS_SCHEMA)
        );
        let oracle = doc.get("oracle").expect("oracle section");
        assert_eq!(oracle.get("pass"), Some(&JsonValue::Bool(true)));
        assert_eq!(oracle.get("recoverable"), Some(&JsonValue::Bool(true)));
        // The random plan actually armed something.
        let entries = doc
            .get("plan")
            .and_then(|p| p.get("entries"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(entries >= 1.0);
    }

    #[test]
    fn mesh_substrate_judges_the_same_contract() {
        let doc = JsonValue::parse(&run_cli(
            "faults --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
             --warmup-ns 20 --measure-ns 150 --oracle",
        ))
        .expect("fault report is valid JSON");
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("mesh")
        );
        assert_eq!(
            doc.get("oracle").and_then(|o| o.get("pass")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn vcmesh_substrate_judges_the_same_contract() {
        for mcast in ["xy-tree", "dpm"] {
            let doc = JsonValue::parse(&run_cli(&format!(
                "faults --substrate vcmesh --mcast {mcast} --benchmark Multicast5 --rate 0.1 \
                 --size 4 --warmup-ns 20 --measure-ns 150 --oracle"
            )))
            .expect("fault report is valid JSON");
            assert_eq!(
                doc.get("substrate").and_then(JsonValue::as_str),
                Some("vcmesh")
            );
            assert_eq!(
                doc.get("oracle").and_then(|o| o.get("pass")),
                Some(&JsonValue::Bool(true)),
                "vcmesh ({mcast}) oracle must pass"
            );
        }
    }

    #[test]
    fn lethal_plan_degrades_gracefully_and_reconciles() {
        // A lethal loss is unrecoverable, but the oracle still *passes*:
        // the degradation contract demands the loss be fully accounted
        // (ledger, absent deliveries, explained broken tree), not that
        // nothing was lost.
        let doc = JsonValue::parse(&run_cli(
            "faults --arch Baseline --benchmark Shuffle --rate 0.2 --size 8 \
             --warmup-ns 20 --measure-ns 150 --oracle --plan lose:0:0",
        ))
        .expect("fault report is valid JSON");
        let oracle = doc.get("oracle").expect("oracle section");
        assert_eq!(oracle.get("recoverable"), Some(&JsonValue::Bool(false)));
        assert_eq!(oracle.get("pass"), Some(&JsonValue::Bool(true)));
        let faulted = doc.get("faulted").expect("faulted outcome");
        assert_eq!(
            faulted.get("summary").and_then(|s| s.get("lost")),
            Some(&JsonValue::uint(1))
        );
        assert_eq!(
            faulted
                .get("analysis")
                .and_then(|a| a.get("broken_with_cause")),
            Some(&JsonValue::uint(1)),
            "the lost packet's tree is broken-with-cause"
        );
    }

    #[test]
    fn seeded_stall_trips_the_no_progress_watchpoint() {
        // A 100 us link stall parks a flit far past the horizon of a
        // 150 ns run: the stream's no-progress invariant must fire and
        // name the site where the flit was last seen.
        let stream_path = std::env::temp_dir().join(format!(
            "asynoc-faults-stall-stream-{}.ndjson",
            std::process::id()
        ));
        let stream_path = stream_path.to_string_lossy().into_owned();
        let report_path = std::env::temp_dir().join(format!(
            "asynoc-faults-stall-report-{}.json",
            std::process::id()
        ));
        let report_path = report_path.to_string_lossy().into_owned();
        let base = format!(
            "faults --arch Baseline --benchmark Shuffle --rate 0.2 --size 8 \
             --warmup-ns 20 --measure-ns 150 --plan stall:0:1:100000000 \
             --report-out {report_path} --stream {stream_path}"
        );
        run_cli(&base);
        let stream = std::fs::read_to_string(&stream_path).expect("stream file");
        let alert = stream
            .lines()
            .find(|l| l.contains("\"kind\":\"no_progress\""))
            .expect("stall must trip the no-progress watchpoint");
        let record = JsonValue::parse(alert).expect("watchpoint record parses");
        let site = record.get("site").and_then(JsonValue::as_str).unwrap();
        assert!(
            site != "-" && !site.is_empty(),
            "watchpoint names the causal site: {alert}"
        );
        assert!(
            record.get("packet").and_then(JsonValue::as_f64).is_some(),
            "watchpoint names the stalled packet: {alert}"
        );

        // --watch-fatal turns the tripped invariant into a non-zero exit
        // *after* the report is written.
        let _ = std::fs::remove_file(&report_path);
        let args: Vec<String> = format!("{base} --watch-fatal")
            .split_whitespace()
            .map(String::from)
            .collect();
        let command = parse(&args).expect("valid invocation");
        let mut out = Vec::new();
        let err = execute(&command, &mut out).expect_err("--watch-fatal must abort");
        assert!(err.to_string().contains("--watch-fatal"), "{err}");
        assert!(
            std::fs::read_to_string(&report_path).is_ok(),
            "report written before the fatal exit"
        );
        let _ = std::fs::remove_file(&stream_path);
        let _ = std::fs::remove_file(&report_path);
    }

    #[test]
    fn starved_subtree_is_judged_under_the_degradation_contract() {
        // Corrupt-to-`Drop` at a root fanout throttles a whole train:
        // destinations go underdelivered, which the recoverable contract
        // would reject but the degradation contract tolerates as long as
        // nothing breaks unexplained.
        let text = run_cli(
            "faults --arch BasicNonSpeculative --benchmark Multicast5 --rate 0.2 --size 8 \
             --warmup-ns 20 --measure-ns 150 --oracle --plan corrupt:0:1:drop",
        );
        let doc = JsonValue::parse(&text).expect("fault report is valid JSON");
        let oracle = doc.get("oracle").expect("oracle section");
        assert_eq!(oracle.get("recoverable"), Some(&JsonValue::Bool(false)));
    }
}

//! `asynoc analyze`: offline causal analysis over an exported trace.
//!
//! Reads the NDJSON flit trace a `metrics --trace-out` run produced
//! (meta line optional — a bare v1 record stream still analyzes, just
//! without window gating or energy pricing), runs the
//! `asynoc-analysis` pipeline, and emits the pinned
//! `asynoc-analysis-v1` JSON report. With `--report-out` the report
//! goes to the file and the stream carries status (plus the heatmaps
//! under `--heatmap`); without it, stdout is the pure JSON document —
//! unless `--heatmap` asks for the human-readable maps instead.

use std::io::Write;

use asynoc_analysis::Analysis;
use asynoc_telemetry::{parse_trace, parse_trace_lenient};

use crate::args::Command;
use crate::commands::CliError;

/// Executes an `analyze` command.
///
/// # Errors
///
/// Returns a [`CliError`] on I/O failure or (without `--lenient`) on the
/// first malformed trace line.
pub(crate) fn execute_analyze(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    let Command::Analyze {
        trace_in,
        report_out,
        top,
        heatmap,
        lenient,
        profile,
    } = command
    else {
        unreachable!("dispatched on Command::Analyze");
    };
    // Analysis runs no simulation, so a `--profile` document has an
    // empty `runs` array: only the pass's wall clock and allocations.
    let profiler = crate::profile::ProfileWriter::when(profile.as_ref(), "analyze");
    let text = std::fs::read_to_string(trace_in)?;
    let (meta, records, skipped) = if *lenient {
        let (meta, records, errors) = parse_trace_lenient(&text);
        (meta, records, errors.len() as u64)
    } else {
        let (meta, records) =
            parse_trace(&text).map_err(|e| CliError::Invalid(format!("{}: {e}", trace_in)))?;
        (meta, records, 0)
    };
    if records.is_empty() {
        return Err(CliError::Invalid(format!(
            "{}: no trace records to analyze",
            trace_in
        )));
    }

    let analysis = Analysis::build(meta, records, *top);
    let rendered = analysis.to_json(skipped).render_pretty();
    match report_out {
        Some(path) => {
            std::fs::write(path, &rendered)?;
            writeln!(out, "analysis report written to {path}")?;
            if skipped > 0 {
                writeln!(out, "skipped {skipped} malformed trace lines")?;
            }
            if *heatmap {
                write!(out, "{}", analysis.heatmap_text())?;
            }
        }
        // Bare stdout stays a single parseable document: JSON by
        // default, the heatmap block when that's what was asked for.
        None if *heatmap => write!(out, "{}", analysis.heatmap_text())?,
        None => out.write_all(rendered.as_bytes())?,
    }
    if let Some(profiler) = profiler {
        profiler.finish()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::parse;
    use crate::commands::execute;
    use crate::commands::run_cli;
    use asynoc_analysis::ANALYSIS_SCHEMA;
    use asynoc_telemetry::JsonValue;

    fn temp_path(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("asynoc-analyze-test-{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    /// Runs metrics with a trace export, then analyzes the trace.
    fn round_trip(trace_name: &str, metrics_line: &str) -> (String, String) {
        let trace_path = temp_path(trace_name);
        let metrics_path = temp_path(&format!("{trace_name}-metrics.json"));
        run_cli(&format!(
            "{metrics_line} --metrics-out {metrics_path} --trace-out {trace_path}"
        ));
        (trace_path, metrics_path)
    }

    #[test]
    fn analyze_reconciles_with_the_metrics_report() {
        let (trace_path, metrics_path) = round_trip(
            "mot.ndjson",
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 40 --measure-ns 400 --trace-limit 200000",
        );
        let report = JsonValue::parse(&run_cli(&format!("analyze --trace-in {trace_path}")))
            .expect("analyze emits valid JSON");
        assert_eq!(
            report.get("schema").and_then(JsonValue::as_str),
            Some(ANALYSIS_SCHEMA)
        );
        assert_eq!(
            report.get("substrate").and_then(JsonValue::as_str),
            Some("mot")
        );
        // Trees may stay open only from tail truncation (packets in
        // flight when the run stopped) — never broken — and the
        // overwhelming majority must close.
        let ingest = report.get("ingest").expect("ingest block");
        assert_eq!(
            ingest.get("broken_trees").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        let open = ingest
            .get("open_trees")
            .and_then(JsonValue::as_f64)
            .unwrap();
        let total = ingest
            .get("flit_trees")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(open * 10.0 < total, "{open} of {total} trees open");

        // The re-derived latency population must match the online
        // histograms from the same run: count exactly, mean to 1 ps.
        let metrics =
            JsonValue::parse(&std::fs::read_to_string(&metrics_path).expect("metrics file"))
                .expect("metrics JSON");
        let analyzed = report.get("latency").expect("latency block");
        let measured = metrics.get("latency").expect("latency block");
        assert_eq!(
            analyzed.get("count").and_then(JsonValue::as_f64),
            measured.get("count").and_then(JsonValue::as_f64),
        );
        let mean_diff = analyzed.get("mean_ps").and_then(JsonValue::as_f64).unwrap()
            - measured.get("mean_ps").and_then(JsonValue::as_f64).unwrap();
        assert!(mean_diff.abs() <= 1.0, "mean off by {mean_diff} ps");
        assert_eq!(
            analyzed.get("min_ps").and_then(JsonValue::as_f64),
            measured.get("min_ps").and_then(JsonValue::as_f64),
        );
        assert_eq!(
            analyzed.get("max_ps").and_then(JsonValue::as_f64),
            measured.get("max_ps").and_then(JsonValue::as_f64),
        );

        // Scorecard totals reconcile with the waste ledger.
        let card = report.get("scorecard").expect("scorecard");
        let ledger = metrics.get("waste").expect("waste ledger");
        for (ours, theirs) in [
            ("total_throttles", "total_throttles"),
            ("total_drop_fj", "total_drop_fj"),
            ("total_wasted_wire_fj", "total_wasted_wire_fj"),
        ] {
            let a = card.get(ours).and_then(JsonValue::as_f64).unwrap();
            let b = ledger.get(theirs).and_then(JsonValue::as_f64).unwrap();
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{ours}: analyzed {a} vs ledger {b}"
            );
        }

        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn analyze_handles_mesh_traces() {
        let (trace_path, metrics_path) = round_trip(
            "mesh.ndjson",
            "metrics --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
             --warmup-ns 40 --measure-ns 400 --trace-limit 200000",
        );
        let report = JsonValue::parse(&run_cli(&format!("analyze --trace-in {trace_path}")))
            .expect("valid JSON");
        assert_eq!(
            report.get("substrate").and_then(JsonValue::as_str),
            Some("mesh")
        );
        // No energy constants on the mesh: no scorecard.
        assert_eq!(report.get("scorecard"), Some(&JsonValue::Null));
        let ingest = report.get("ingest").expect("ingest block");
        assert_eq!(
            ingest.get("broken_trees").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        let open = ingest
            .get("open_trees")
            .and_then(JsonValue::as_f64)
            .unwrap();
        let total = ingest
            .get("flit_trees")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(open * 10.0 < total, "{open} of {total} trees open");
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn heatmap_mode_prints_maps_and_report_out_writes_json() {
        let (trace_path, metrics_path) = round_trip(
            "heat.ndjson",
            "metrics --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --warmup-ns 40 --measure-ns 200",
        );
        let report_path = temp_path("heat-report.json");
        let text = run_cli(&format!(
            "analyze --trace-in {trace_path} --report-out {report_path} --heatmap --top 3"
        ));
        assert!(text.contains("analysis report written"));
        assert!(text.contains("channel busy"));
        assert!(text.contains("fo-L0"));
        let report = JsonValue::parse(&std::fs::read_to_string(&report_path).expect("report file"))
            .expect("valid JSON");
        let slowest = report
            .get("critical_path")
            .and_then(|c| c.get("slowest"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(slowest.len() <= 3, "--top bounds the ranked lists");

        // Bare --heatmap prints only the maps.
        let maps = run_cli(&format!("analyze --trace-in {trace_path} --heatmap"));
        assert!(maps.starts_with("channel busy"));
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
        let _ = std::fs::remove_file(&report_path);
    }

    #[test]
    fn lenient_mode_skips_and_counts_malformed_lines() {
        let (trace_path, metrics_path) = round_trip(
            "lenient.ndjson",
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 \
             --warmup-ns 40 --measure-ns 200",
        );
        let mut text = std::fs::read_to_string(&trace_path).expect("trace");
        text.push_str("this is not json\n{\"t_ps\":\"nope\"}\n");
        std::fs::write(&trace_path, &text).expect("rewrite");

        // Strict mode names the offending line.
        let args: Vec<String> = format!("analyze --trace-in {trace_path}")
            .split_whitespace()
            .map(String::from)
            .collect();
        let command = parse(&args).expect("parses");
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("line"), "{err}");

        // Lenient mode analyzes the rest and reports the skip count.
        let report = JsonValue::parse(&run_cli(&format!(
            "analyze --trace-in {trace_path} --lenient"
        )))
        .expect("valid JSON");
        assert_eq!(
            report
                .get("ingest")
                .and_then(|i| i.get("skipped_lines"))
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn empty_trace_is_an_error() {
        let path = temp_path("empty.ndjson");
        std::fs::write(&path, "").expect("write");
        let args: Vec<String> = format!("analyze --trace-in {path}")
            .split_whitespace()
            .map(String::from)
            .collect();
        let command = parse(&args).expect("parses");
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("no trace records"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}

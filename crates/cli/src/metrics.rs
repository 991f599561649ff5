//! `asynoc metrics`: one instrumented run emitting the JSON metrics
//! report (and optionally a flit trace).
//!
//! The report is the CLI surface of the `asynoc-telemetry` observer
//! stack: latency percentiles (overall / per destination / per hop
//! count), a windowed time-series with per-level busy fractions, the
//! speculation-waste ledger, and the run's power/throughput/counter
//! summaries, all under the [`METRICS_SCHEMA`] version tag.

use std::io::Write;

use asynoc::{Benchmark, Duration, Observer};
use asynoc_power::{EnergyCategory, PowerReport};
use asynoc_telemetry::trace::SiteFn;
use asynoc_telemetry::{
    render_trace, ChromeTraceObserver, JsonValue, LatencyHistograms, SpeculationWaste,
    TraceCollector, TraceMeta, METRICS_SCHEMA,
};

use crate::args::{Command, CommonOptions, TraceFormat};
use crate::commands::CliError;
use crate::profile::ProfileWriter;
use crate::substrate::{Fabric, Job, Load, Summary};

/// The `--trace-out` observer, in the requested format.
enum Tracer<N> {
    Ndjson(TraceCollector<N>),
    Chrome(ChromeTraceObserver<N>),
}

impl<N: Copy> Tracer<N> {
    fn new(format: TraceFormat, limit: usize, site_of: SiteFn<N>) -> Self {
        match format {
            TraceFormat::Ndjson => Tracer::Ndjson(TraceCollector::new(limit, site_of)),
            TraceFormat::Chrome => Tracer::Chrome(ChromeTraceObserver::new(limit, site_of)),
        }
    }

    fn observer(&mut self) -> &mut dyn Observer<N> {
        match self {
            Tracer::Ndjson(collector) => collector,
            Tracer::Chrome(observer) => observer,
        }
    }

    /// Renders the collected trace. NDJSON traces lead with the run's
    /// meta line (stamped with how many events the cap dropped) so
    /// `asynoc analyze` can gate and price its results; Chrome traces
    /// have no meta notion.
    fn render(self, mut meta: TraceMeta) -> String {
        match self {
            Tracer::Ndjson(collector) => {
                meta.dropped_events = collector.dropped();
                render_trace(&meta, collector.records())
            }
            Tracer::Chrome(observer) => observer.into_trace().render(),
        }
    }
}

/// The identity keys a run is reproducible from — shared by every report
/// `config` section, the stream's `head` record and the profile
/// document's per-run `config`.
///
/// `arch` is the placement identity string: a preset name, or the
/// canonical `levels:` map form for custom `--spec-map` placements
/// (either is a valid `--spec-map` value, so any report reproduces its
/// own run).
pub(crate) fn config_json(
    arch: Option<&str>,
    benchmark: Benchmark,
    rate: f64,
    common: &CommonOptions,
) -> JsonValue {
    JsonValue::Object(vec![
        (
            "arch".to_string(),
            arch.map_or(JsonValue::Null, JsonValue::str),
        ),
        (
            "benchmark".to_string(),
            JsonValue::str(benchmark.to_string()),
        ),
        ("rate_gfs".to_string(), JsonValue::Number(rate)),
        ("size".to_string(), JsonValue::uint(common.size as u64)),
        ("seed".to_string(), JsonValue::uint(common.seed)),
        (
            "flits".to_string(),
            JsonValue::uint(u64::from(common.flits)),
        ),
    ])
}

fn throughput_json(throughput: &asynoc_stats::throughput::ThroughputReport) -> JsonValue {
    JsonValue::Object(vec![
        (
            "offered_gfs".to_string(),
            JsonValue::Number(throughput.offered),
        ),
        (
            "injected_gfs".to_string(),
            JsonValue::Number(throughput.injected),
        ),
        (
            "delivered_gfs".to_string(),
            JsonValue::Number(throughput.delivered),
        ),
        (
            "acceptance".to_string(),
            JsonValue::Number(throughput.acceptance()),
        ),
    ])
}

fn power_json(power: &PowerReport, window: Duration) -> JsonValue {
    let category = |c: EnergyCategory| JsonValue::Number(power.category_mw(c));
    JsonValue::Object(vec![
        ("fanout_mw".to_string(), category(EnergyCategory::Fanout)),
        ("fanin_mw".to_string(), category(EnergyCategory::Fanin)),
        ("wire_mw".to_string(), category(EnergyCategory::Wire)),
        ("dropped_mw".to_string(), category(EnergyCategory::Dropped)),
        (
            "dynamic_mw".to_string(),
            JsonValue::Number(power.dynamic_mw()),
        ),
        (
            "leakage_mw".to_string(),
            JsonValue::Number(power.leakage_mw()),
        ),
        ("total_mw".to_string(), JsonValue::Number(power.total_mw())),
        ("window_ps".to_string(), JsonValue::uint(window.as_ps())),
    ])
}

fn counters_json(summary: &Summary<'_>) -> JsonValue {
    JsonValue::Object(vec![
        (
            "packets_measured".to_string(),
            JsonValue::uint(summary.packets_measured as u64),
        ),
        (
            "packets_incomplete".to_string(),
            JsonValue::uint(summary.packets_incomplete as u64),
        ),
        (
            "flits_throttled".to_string(),
            JsonValue::uint(summary.flits_throttled),
        ),
        (
            "flits_delivered".to_string(),
            JsonValue::uint(summary.flits_delivered),
        ),
        (
            "events_processed".to_string(),
            JsonValue::uint(summary.events_processed),
        ),
        ("shards".to_string(), JsonValue::uint(summary.shards as u64)),
        (
            "shard_events".to_string(),
            JsonValue::Array(
                summary
                    .shard_events
                    .iter()
                    .map(|&e| JsonValue::uint(e))
                    .collect(),
            ),
        ),
    ])
}

/// A report's scalar sections in document order. The metrics document
/// (`waste` given: the ledger, or `null` off the MoT) spells out every
/// section, `null` where the fabric has none; `run`'s stream `end`
/// record (`waste` absent) carries only what the fabric measured:
/// `throughput`, `power` (MoT only), `counters`, then the fabric's own
/// sections. The `end` record carries them verbatim, so `fold_stream`
/// reproduces the batch document byte-for-byte.
pub(crate) fn scalar_sections<F: Fabric>(
    fabric: &F,
    report: &F::Report,
    window: Duration,
    waste: Option<JsonValue>,
) -> Vec<(String, JsonValue)> {
    let summary = F::summary(report);
    let metrics = waste.is_some();
    let mut sections: Vec<(String, JsonValue)> = waste
        .map(|w| ("waste".to_string(), w))
        .into_iter()
        .collect();
    sections.push((
        "throughput".to_string(),
        throughput_json(summary.throughput),
    ));
    match summary.power {
        Some(power) => sections.push(("power".to_string(), power_json(power, window))),
        None if metrics => sections.push(("power".to_string(), JsonValue::Null)),
        None => {}
    }
    sections.push(("counters".to_string(), counters_json(&summary)));
    sections.extend(fabric.sections(report));
    sections
}

/// The `metrics` command body, generic over the fabric.
struct Metrics<'a> {
    command: &'a Command,
    out: &'a mut dyn Write,
}

impl Job for Metrics<'_> {
    const NAME: &'static str = "metrics";

    fn on<F: Fabric>(self, fabric: &F, profiler: Option<ProfileWriter>) -> Result<(), CliError> {
        let Command::Metrics {
            benchmark,
            rate,
            bin_ns,
            metrics_out,
            trace_format,
            trace_out,
            trace_limit,
            common,
            ..
        } = self.command
        else {
            unreachable!("dispatched on Command::Metrics");
        };
        let load = Load::new(*benchmark, *rate, common);
        let config = config_json(fabric.identity(), *benchmark, *rate, common);
        let mut latency = LatencyHistograms::new(load.phases, fabric.endpoints());
        let mut timeseries = fabric.time_series(Duration::from_ns(*bin_ns));
        let speculation = fabric.speculation();
        let energy = speculation.as_ref().map(|s| (s.wire_fj, s.drop_fj));
        let mut waste = speculation
            .map(|s| SpeculationWaste::new(s.wire_fj, s.drop_fj, fabric.label(), s.parent));
        let mut tracer =
            trace_format.map(|format| Tracer::new(format, *trace_limit, fabric.label()));
        let mut sink = crate::stream::sink(
            fabric,
            common,
            config.clone(),
            load.phases,
            Some(*bin_ns),
            *trace_limit,
        )?;

        let mut extra: Vec<&mut dyn Observer<F::Node>> = vec![&mut latency, &mut timeseries];
        if let Some(waste) = waste.as_mut() {
            extra.push(waste);
        }
        if let Some(tracer) = tracer.as_mut() {
            extra.push(tracer.observer());
        }
        if let Some(sink) = sink.as_mut() {
            extra.push(sink);
        }
        let report = fabric.simulate(&load, &mut extra)?;

        let window = load.phases.measure();
        let power = F::summary(&report).power;
        let waste_value = waste.map_or(JsonValue::Null, |waste| {
            // mW = fJ/ps, so dynamic energy over the window is mW x ps (in fJ).
            let dynamic_mw = power.map_or(0.0, PowerReport::dynamic_mw);
            waste.to_json(dynamic_mw * window.as_ps() as f64)
        });
        let sections = scalar_sections(fabric, &report, window, Some(waste_value));
        let watchpoints = crate::stream::finish(sink, JsonValue::Object(sections.clone()))?;
        let mut members = vec![
            ("schema".to_string(), JsonValue::str(METRICS_SCHEMA)),
            ("substrate".to_string(), JsonValue::str(F::TAG)),
            ("config".to_string(), config.clone()),
            ("latency".to_string(), latency.to_json()),
            ("timeseries".to_string(), timeseries.to_json()),
        ];
        members.extend(sections);
        let rendered = JsonValue::Object(members).render_pretty();

        let out = self.out;
        match metrics_out {
            Some(path) => {
                std::fs::write(path, &rendered)?;
                writeln!(out, "metrics report written to {path}")?;
            }
            // Bare stdout stays pure JSON so pipelines can parse it.
            None => out.write_all(rendered.as_bytes())?,
        }
        let meta = TraceMeta {
            substrate: F::TAG.to_string(),
            arch: fabric.identity().map(str::to_string),
            size: common.size as u64,
            seed: common.seed,
            flits: common.flits,
            rate: *rate,
            warmup_ps: load.phases.warmup().as_ps(),
            measure_ps: window.as_ps(),
            wire_fj: energy.map(|(wire, _)| wire),
            drop_fj: energy.map(|(_, drop)| drop),
            dropped_events: 0,
        };
        if let (Some(tracer), Some(path)) = (tracer, trace_out) {
            std::fs::write(path, tracer.render(meta))?;
            if metrics_out.is_some() {
                writeln!(out, "trace written to {path}")?;
            }
        }
        if let Some(mut profiler) = profiler {
            if let Some(profile) = F::summary(&report).profile {
                profiler.add_run(config, profile);
            }
            profiler.finish()?;
        }
        crate::stream::fatal_check(watchpoints, common)
    }
}

/// Executes a `metrics` command: runs the instrumented simulation, then
/// writes the JSON report (to `--metrics-out` or `out`), the trace
/// (to `--trace-out`, when requested), and the self-profile (to
/// `--profile`, when requested).
///
/// # Errors
///
/// Returns a [`CliError`] on simulation, configuration, or I/O failure.
pub(crate) fn execute_metrics(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    crate::substrate::dispatch(command, Metrics { command, out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run_cli;
    use asynoc_telemetry::{parse_trace, validate_chrome};

    fn metrics_doc(line: &str) -> JsonValue {
        JsonValue::parse(&run_cli(line)).expect("metrics output is valid JSON")
    }

    fn temp_path(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("asynoc-metrics-test-{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn mot_report_has_percentiles_busy_fractions_and_waste() {
        let doc = metrics_doc(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 40 --measure-ns 400 --bin-ns 50",
        );
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(METRICS_SCHEMA)
        );
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("mot")
        );
        let latency = doc.get("latency").expect("latency section");
        assert!(latency.get("p50_ps").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert!(
            latency.get("p99_ps").and_then(JsonValue::as_f64).unwrap()
                >= latency.get("p50_ps").and_then(JsonValue::as_f64).unwrap()
        );
        assert!(
            !latency
                .get("per_dest")
                .and_then(JsonValue::as_array)
                .unwrap()
                .is_empty(),
            "per-destination breakdown populated"
        );
        assert!(!latency
            .get("per_hops")
            .and_then(JsonValue::as_array)
            .unwrap()
            .is_empty());
        let timeseries = doc.get("timeseries").expect("timeseries section");
        let levels = timeseries
            .get("levels")
            .and_then(JsonValue::as_array)
            .unwrap();
        // 8x8 MoT: three fanout levels + three fanin levels.
        assert_eq!(levels.len(), 6);
        let bins = timeseries
            .get("bins")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(!bins.is_empty());
        let busiest = bins
            .iter()
            .flat_map(|bin| {
                bin.get("busy_fraction")
                    .and_then(JsonValue::as_array)
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect::<Vec<_>>()
            })
            .fold(0.0f64, f64::max);
        assert!(busiest > 0.0, "some level saw traffic");
        assert!(busiest <= 1.0, "busy fraction is a fraction: {busiest}");
        // The hybrid network speculates, so the ledger must have entries.
        let waste = doc.get("waste").expect("waste section");
        assert!(
            waste
                .get("total_throttles")
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(!waste
            .get("per_node")
            .and_then(JsonValue::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn waste_ledger_reconciles_with_the_energy_ledger() {
        let doc = metrics_doc(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 \
             --warmup-ns 40 --measure-ns 400",
        );
        let waste_drop_fj = doc
            .get("waste")
            .and_then(|w| w.get("total_drop_fj"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        let power = doc.get("power").expect("power section");
        let dropped_mw = power.get("dropped_mw").and_then(JsonValue::as_f64).unwrap();
        let window_ps = power.get("window_ps").and_then(JsonValue::as_f64).unwrap();
        // Both observers price the same in-window drops at the same fJ,
        // so the ledgers must agree (up to f64 summation order).
        let energy_drop_fj = dropped_mw * window_ps;
        assert!(waste_drop_fj > 0.0, "hybrid network must drop copies");
        assert!(
            (waste_drop_fj - energy_drop_fj).abs() <= 1e-6 * energy_drop_fj.max(1.0),
            "waste ledger {waste_drop_fj} fJ vs energy ledger {energy_drop_fj} fJ"
        );
    }

    #[test]
    fn mesh_report_has_latency_but_null_power() {
        let doc = metrics_doc(
            "metrics --substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 \
             --warmup-ns 40 --measure-ns 400",
        );
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("mesh")
        );
        assert_eq!(doc.get("power"), Some(&JsonValue::Null));
        assert_eq!(doc.get("waste"), Some(&JsonValue::Null));
        assert!(
            doc.get("latency")
                .and_then(|l| l.get("count"))
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn vcmesh_report_carries_the_vc_section_and_is_shard_invariant() {
        let base = "metrics --substrate vcmesh --benchmark Multicast10 --rate 0.1 --size 4 \
                    --warmup-ns 40 --measure-ns 400";
        let doc = metrics_doc(&format!("{base} --shards 1"));
        assert_eq!(
            doc.get("substrate").and_then(JsonValue::as_str),
            Some("vcmesh")
        );
        assert_eq!(doc.get("power"), Some(&JsonValue::Null));
        assert_eq!(doc.get("waste"), Some(&JsonValue::Null));
        assert!(
            doc.get("latency")
                .and_then(|l| l.get("count"))
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
        let vcs = doc.get("vcs").expect("vcs section");
        assert_eq!(
            vcs.get("mcast").and_then(JsonValue::as_str),
            Some("xy-tree")
        );
        let pushes = vcs.get("vc_pushes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(pushes.len(), asynoc_vcmesh::VC_COUNT);
        assert!(
            pushes.iter().map(|p| p.as_f64().unwrap()).sum::<f64>() > 0.0,
            "VC planes carried traffic"
        );
        assert!(
            vcs.get("link_traversals")
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
        // The acceptance gate: the whole document — including every vcs
        // counter — must be byte-identical across shard counts (only the
        // counters section's shard layout legitimately differs, and it
        // does so identically in batch and stream).
        let serial = run_cli(&format!("{base} --shards 1"));
        let sharded = run_cli(&format!("{base} --shards 2"));
        let strip_layout = |text: &str| {
            let JsonValue::Object(mut members) = JsonValue::parse(text).unwrap() else {
                panic!("report is an object");
            };
            for (key, value) in &mut members {
                if key == "counters" {
                    let JsonValue::Object(counters) = value else {
                        panic!("counters is an object");
                    };
                    counters.retain(|(k, _)| k != "shards" && k != "shard_events");
                }
            }
            JsonValue::Object(members).render_pretty()
        };
        assert_eq!(
            strip_layout(&serial),
            strip_layout(&sharded),
            "vcmesh metrics must be shard-invariant"
        );
    }

    #[test]
    fn dpm_report_uses_no_more_links_than_xy_tree() {
        let base = "metrics --substrate vcmesh --benchmark Multicast10 --rate 0.1 --size 4 \
                    --warmup-ns 40 --measure-ns 400";
        let links = |doc: &JsonValue| {
            doc.get("vcs")
                .and_then(|v| v.get("link_traversals"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        let tree = metrics_doc(&format!("{base} --mcast xy-tree"));
        let dpm = metrics_doc(&format!("{base} --mcast dpm"));
        assert_eq!(
            dpm.get("vcs")
                .and_then(|v| v.get("mcast"))
                .and_then(JsonValue::as_str),
            Some("dpm"),
            "dpm doc is tagged with its scheme"
        );
        assert!(
            links(&dpm) <= links(&tree),
            "DPM must not use more links than the XY tree: {} vs {}",
            links(&dpm),
            links(&tree)
        );
        // Identical injection schedule: both schemes measure the same
        // packet population.
        assert_eq!(
            dpm.get("counters").and_then(|c| c.get("packets_measured")),
            tree.get("counters").and_then(|c| c.get("packets_measured")),
        );
    }

    #[test]
    fn streamed_windows_fold_back_into_the_batch_document() {
        use asynoc_telemetry::fold_stream;
        // Both substrates, serial and sharded: the incremental stream
        // must fold into the exact batch report, and the event-record
        // prefix of the stream must be shard-invariant.
        for (tag, substrate_args) in [
            (
                "mot",
                "--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 --bin-ns 50",
            ),
            (
                "mesh",
                "--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 --bin-ns 50",
            ),
            (
                "vcmesh",
                "--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4 \
                 --bin-ns 50",
            ),
        ] {
            let mut streams = Vec::new();
            for shards in [1usize, 2] {
                let batch_path = temp_path(&format!("fold-batch-{tag}-{shards}.json"));
                let stream_path = temp_path(&format!("fold-stream-{tag}-{shards}.ndjson"));
                run_cli(&format!(
                    "metrics {substrate_args} --warmup-ns 40 --measure-ns 400 \
                     --shards {shards} --metrics-out {batch_path} --stream {stream_path}"
                ));
                let batch = std::fs::read_to_string(&batch_path).expect("batch report");
                let stream = std::fs::read_to_string(&stream_path).expect("stream file");
                let folded = fold_stream(&stream).expect("stream folds").render_pretty();
                assert_eq!(
                    folded, batch,
                    "fold != batch for {substrate_args} shards {shards}"
                );
                streams.push(stream);
                let _ = std::fs::remove_file(&batch_path);
                let _ = std::fs::remove_file(&stream_path);
            }
            // Everything up to the end record is byte-identical across
            // shard counts; the end record's counters section records
            // the shard layout itself, so it legitimately differs.
            let prefix = |text: &str| {
                let mut lines: Vec<&str> = text.lines().collect();
                assert!(lines.pop().is_some_and(|l| l.contains("\"type\":\"end\"")));
                lines.join("\n")
            };
            assert_eq!(
                prefix(&streams[0]),
                prefix(&streams[1]),
                "{tag} stream records must be shard-invariant"
            );
        }
    }

    #[test]
    fn watch_fold_reproduces_the_batch_report_via_the_cli() {
        let batch_path = temp_path("watch-batch.json");
        let stream_path = temp_path("watch-stream.ndjson");
        let folded_path = temp_path("watch-folded.json");
        run_cli(&format!(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 \
             --warmup-ns 40 --measure-ns 300 --metrics-out {batch_path} \
             --stream {stream_path} --stream-window-ns 100"
        ));
        let text = run_cli(&format!(
            "watch --stream-in {stream_path} --once --fold {folded_path}"
        ));
        assert!(text.contains("stream ended"), "{text}");
        let batch = std::fs::read_to_string(&batch_path).expect("batch report");
        let folded = std::fs::read_to_string(&folded_path).expect("folded report");
        assert_eq!(folded, batch, "watch --fold must reproduce the batch bytes");
        let _ = std::fs::remove_file(&batch_path);
        let _ = std::fs::remove_file(&stream_path);
        let _ = std::fs::remove_file(&folded_path);
    }

    #[test]
    fn streaming_leaves_the_batch_outputs_unchanged() {
        // --stream is an additive observer: stdout (the batch report)
        // must stay byte-identical with and without it.
        let stream_path = temp_path("invariance.ndjson");
        let base = "metrics --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
                    --warmup-ns 40 --measure-ns 200";
        let plain = run_cli(base);
        let streamed = run_cli(&format!("{base} --stream {stream_path} --stream-trace"));
        assert_eq!(plain, streamed);
        let stream = std::fs::read_to_string(&stream_path).expect("stream file");
        let _ = std::fs::remove_file(&stream_path);
        assert!(stream.contains("\"type\":\"head\""));
        assert!(stream.contains("\"type\":\"window\""));
        assert!(
            stream.contains("\"type\":\"trace\""),
            "--stream-trace embeds trace records"
        );
        assert!(stream.contains("\"type\":\"end\""));
    }

    #[test]
    fn chrome_trace_export_validates() {
        let trace_path = temp_path("chrome.json");
        let metrics_path = temp_path("report.json");
        let text = run_cli(&format!(
            "metrics --arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2 \
             --warmup-ns 40 --measure-ns 200 --metrics-out {metrics_path} \
             --trace-format chrome --trace-out {trace_path}"
        ));
        assert!(text.contains("metrics report written"));
        assert!(text.contains("trace written"));
        let trace = std::fs::read_to_string(&trace_path).expect("trace file");
        let events = validate_chrome(&trace).expect("well-formed Chrome trace");
        assert!(events > 0, "trace has events");
        let report = std::fs::read_to_string(&metrics_path).expect("report file");
        assert!(JsonValue::parse(&report).is_ok());
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn ndjson_trace_export_round_trips() {
        let trace_path = temp_path("trace.ndjson");
        let metrics_path = temp_path("ndjson-report.json");
        run_cli(&format!(
            "metrics --arch Baseline --benchmark Shuffle --rate 0.2 \
             --warmup-ns 40 --measure-ns 200 --metrics-out {metrics_path} \
             --trace-out {trace_path} --trace-limit 200000"
        ));
        let text = std::fs::read_to_string(&trace_path).expect("trace file");
        let (meta, records) = parse_trace(&text).expect("well-formed NDJSON");
        let meta = meta.expect("trace leads with a meta line");
        assert_eq!(meta.substrate, "mot");
        assert_eq!(meta.arch.as_deref(), Some("Baseline"));
        assert_eq!(meta.dropped_events, 0, "limit 2000 drops nothing here");
        assert!(!records.is_empty());
        assert!(records.iter().any(|r| r.action == "inject"));
        assert!(records.iter().any(|r| r.action == "deliver"));
        assert!(
            records
                .iter()
                .any(|r| r.action == "deliver" && r.created_ps < r.t_ps),
            "records carry causal fields"
        );
        // One meta line + one line per record.
        assert_eq!(records.len() + 1, text.lines().count());
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }
}

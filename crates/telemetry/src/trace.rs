//! Substrate-neutral trace records with NDJSON import/export.
//!
//! A [`TraceRecord`] is the flat, serializable form of one flit action.
//! Every substrate produces them the same way — the generic
//! [`TraceCollector`] observer builds them straight off the engine event
//! stream — so one parser round-trips traces from any simulator.
//!
//! Beyond the original identity fields (time, packet, flit, site, action),
//! a record carries the causal context offline analysis needs: the
//! packet's creation time and logical id (for exact latency
//! reconstruction), its source and destination count, the number of
//! copies the event created, and how long the node stayed busy servicing
//! it. A trace file may open with one [`TraceMeta`] line (tagged
//! [`TRACE_SCHEMA`]) describing the run that produced it — window bounds
//! and energy constants — so `asynoc analyze` can reconcile its findings
//! with the metrics report of the same run.

use asynoc_engine::{ForwardInfo, Observer, SimEvent};
use asynoc_kernel::{FaultClass, Time};

use crate::json::{JsonError, JsonValue};

/// Schema tag carried by a trace file's leading meta line.
pub const TRACE_SCHEMA: &str = "asynoc-trace-v2";

/// One flit action in substrate-neutral form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time, picoseconds.
    pub t_ps: u64,
    /// Raw packet identifier.
    pub packet: u64,
    /// The logical packet this one belongs to (serial-multicast clones
    /// share it; otherwise equal to `packet`).
    pub logical: u64,
    /// Flit index within the packet (0 = header).
    pub flit: u8,
    /// The packet's injecting source.
    pub src: u64,
    /// Number of destinations the packet targets.
    pub dests: u64,
    /// The packet's creation time (entry into the source queue), ps.
    pub created_ps: u64,
    /// Where it happened (display label, e.g. `"src3"`, `"fo[s2:0.0]"`,
    /// `"r5"`).
    pub site: String,
    /// What happened: `inject`, `forward`, `throttle`, or `deliver`.
    pub action: String,
    /// Action detail (route symbol, winning arbitration input), may be
    /// empty.
    pub detail: String,
    /// Copies the event put in flight: 1 for an injection, the fanout
    /// width for a forward (2 at replication/speculation points), 0 for
    /// a throttle or delivery (both consume without creating).
    pub copies: u8,
    /// How long the site stayed occupied servicing this event, ps (0
    /// where the substrate reports none, e.g. injections/deliveries).
    pub busy_ps: u64,
}

impl TraceRecord {
    /// Renders the record as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        self.to_json().render()
    }

    /// The record's JSON object form (embedded verbatim in `trace`
    /// records of the streaming format).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("t_ps".to_string(), JsonValue::uint(self.t_ps)),
            ("packet".to_string(), JsonValue::uint(self.packet)),
            ("logical".to_string(), JsonValue::uint(self.logical)),
            ("flit".to_string(), JsonValue::uint(u64::from(self.flit))),
            ("src".to_string(), JsonValue::uint(self.src)),
            ("dests".to_string(), JsonValue::uint(self.dests)),
            ("created_ps".to_string(), JsonValue::uint(self.created_ps)),
            ("site".to_string(), JsonValue::str(self.site.clone())),
            ("action".to_string(), JsonValue::str(self.action.clone())),
            ("detail".to_string(), JsonValue::str(self.detail.clone())),
            (
                "copies".to_string(),
                JsonValue::uint(u64::from(self.copies)),
            ),
            ("busy_ps".to_string(), JsonValue::uint(self.busy_ps)),
        ])
    }

    /// Parses one NDJSON line back into a record.
    ///
    /// The causal fields introduced by [`TRACE_SCHEMA`] (`logical`, `src`,
    /// `dests`, `created_ps`, `copies`, `busy_ps`) are optional, so v1
    /// traces still parse: `logical` defaults to `packet` and the rest
    /// to zero.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending field if the line is
    /// not a JSON object with the expected fields.
    pub fn from_ndjson(line: &str) -> Result<TraceRecord, JsonError> {
        let value = JsonValue::parse(line)?;
        let required = |key: &str| {
            value.get(key).cloned().ok_or(JsonError {
                at: 0,
                message: format!("missing field {key:?}"),
            })
        };
        let number = |key: &str| {
            required(key)?.as_f64().ok_or(JsonError {
                at: 0,
                message: format!("field {key:?} is not a number"),
            })
        };
        let optional_number = |key: &str, default: f64| match value.get(key) {
            None => Ok(default),
            Some(v) => v.as_f64().ok_or(JsonError {
                at: 0,
                message: format!("field {key:?} is not a number"),
            }),
        };
        let string = |key: &str| {
            required(key).and_then(|v| {
                v.as_str().map(str::to_string).ok_or(JsonError {
                    at: 0,
                    message: format!("field {key:?} is not a string"),
                })
            })
        };
        let packet = number("packet")? as u64;
        Ok(TraceRecord {
            t_ps: number("t_ps")? as u64,
            packet,
            logical: optional_number("logical", packet as f64)? as u64,
            flit: number("flit")? as u8,
            src: optional_number("src", 0.0)? as u64,
            dests: optional_number("dests", 0.0)? as u64,
            created_ps: optional_number("created_ps", 0.0)? as u64,
            site: string("site")?,
            action: string("action")?,
            detail: string("detail")?,
            copies: optional_number("copies", 0.0)? as u8,
            busy_ps: optional_number("busy_ps", 0.0)? as u64,
        })
    }
}

/// The run context a trace file's leading meta line records: enough for
/// an offline analyzer to reproduce the measurement window gating and
/// price speculation waste with the run's own energy constants.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Which fabric produced the trace (`"mot"` or `"mesh"`).
    pub substrate: String,
    /// Network architecture (MoT only).
    pub arch: Option<String>,
    /// Network size (endpoints per side).
    pub size: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Flits per packet.
    pub flits: u8,
    /// Offered load, flits/ns per source.
    pub rate: f64,
    /// Warmup window, ps.
    pub warmup_ps: u64,
    /// Measurement window, ps.
    pub measure_ps: u64,
    /// Wire launch energy, fJ (MoT only).
    pub wire_fj: Option<f64>,
    /// Drop-acknowledge energy, fJ (MoT only).
    pub drop_fj: Option<f64>,
    /// Events the collector could not record because its limit was hit;
    /// nonzero means span trees may be truncated.
    pub dropped_events: u64,
}

impl TraceMeta {
    /// Returns `true` when `created_ps` falls inside the measurement
    /// window `[warmup, warmup + measure)` — the same gate the latency
    /// and waste observers apply.
    #[must_use]
    pub fn in_measurement(&self, t_ps: u64) -> bool {
        t_ps >= self.warmup_ps && t_ps < self.warmup_ps + self.measure_ps
    }

    /// Renders the meta line (no trailing newline).
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let opt_num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Number);
        JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::str(TRACE_SCHEMA)),
            (
                "substrate".to_string(),
                JsonValue::str(self.substrate.clone()),
            ),
            (
                "arch".to_string(),
                self.arch
                    .as_ref()
                    .map_or(JsonValue::Null, |a| JsonValue::str(a.clone())),
            ),
            ("size".to_string(), JsonValue::uint(self.size)),
            ("seed".to_string(), JsonValue::uint(self.seed)),
            ("flits".to_string(), JsonValue::uint(u64::from(self.flits))),
            ("rate_gfs".to_string(), JsonValue::Number(self.rate)),
            ("warmup_ps".to_string(), JsonValue::uint(self.warmup_ps)),
            ("measure_ps".to_string(), JsonValue::uint(self.measure_ps)),
            ("wire_fj".to_string(), opt_num(self.wire_fj)),
            ("drop_fj".to_string(), opt_num(self.drop_fj)),
            (
                "dropped_events".to_string(),
                JsonValue::uint(self.dropped_events),
            ),
        ])
        .render()
    }

    /// Parses a meta line (an object whose `schema` field is
    /// [`TRACE_SCHEMA`]).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending field on mismatch.
    pub fn from_ndjson(line: &str) -> Result<TraceMeta, JsonError> {
        let value = JsonValue::parse(line)?;
        TraceMeta::from_json(&value)
    }

    fn from_json(value: &JsonValue) -> Result<TraceMeta, JsonError> {
        let err = |message: String| JsonError { at: 0, message };
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("missing field \"schema\"".to_string()))?;
        if schema != TRACE_SCHEMA {
            return Err(err(format!(
                "field \"schema\" is {schema:?}, expected {TRACE_SCHEMA:?}"
            )));
        }
        let number = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| err(format!("field {key:?} is missing or not a number")))
        };
        let opt_number = |key: &str| match value.get(key) {
            None | Some(JsonValue::Null) => None,
            Some(v) => v.as_f64(),
        };
        Ok(TraceMeta {
            substrate: value
                .get("substrate")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| err("field \"substrate\" is missing or not a string".to_string()))?
                .to_string(),
            arch: value
                .get("arch")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            size: number("size")? as u64,
            seed: number("seed")? as u64,
            flits: number("flits")? as u8,
            rate: number("rate_gfs")?,
            warmup_ps: number("warmup_ps")? as u64,
            measure_ps: number("measure_ps")? as u64,
            wire_fj: opt_number("wire_fj"),
            drop_fj: opt_number("drop_fj"),
            dropped_events: opt_number("dropped_events").unwrap_or(0.0) as u64,
        })
    }
}

/// A malformed NDJSON trace line: the 1-based line number and a message
/// naming the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the malformed line.
    pub line: usize,
    /// What was wrong (includes the offending field's name when known).
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Renders records as an NDJSON document, one object per line.
#[must_use]
pub fn render_ndjson(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record.to_ndjson());
        out.push('\n');
    }
    out
}

/// Renders a full trace document: the meta line followed by the records.
#[must_use]
pub fn render_trace(meta: &TraceMeta, records: &[TraceRecord]) -> String {
    let mut out = meta.to_ndjson();
    out.push('\n');
    out.push_str(&render_ndjson(records));
    out
}

/// One parsed line: a meta object, a record, or a blank to skip.
fn parse_line(line: &str) -> Result<Option<Result<TraceMeta, TraceRecord>>, JsonError> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    // A meta line is any object carrying a "schema" field; records never
    // have one, so the dispatch is unambiguous.
    if line.contains("\"schema\"") {
        if let Ok(value) = JsonValue::parse(line) {
            if value.get("schema").is_some() {
                return TraceMeta::from_json(&value).map(|m| Some(Ok(m)));
            }
        }
    }
    TraceRecord::from_ndjson(line).map(|r| Some(Err(r)))
}

/// Parses an NDJSON trace document: an optional leading [`TraceMeta`]
/// line, then one record per line (blank lines ignored).
///
/// # Errors
///
/// Returns a [`TraceParseError`] carrying the 1-based line number and the
/// offending field of the first malformed line.
pub fn parse_trace(text: &str) -> Result<(Option<TraceMeta>, Vec<TraceRecord>), TraceParseError> {
    let mut meta = None;
    let mut records = Vec::new();
    for (index, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(None) => {}
            Ok(Some(Ok(m))) => meta = Some(m),
            Ok(Some(Err(record))) => records.push(record),
            Err(e) => {
                return Err(TraceParseError {
                    line: index + 1,
                    message: e.message,
                })
            }
        }
    }
    Ok((meta, records))
}

/// Parses an NDJSON trace document, skipping malformed lines instead of
/// aborting: returns the meta (if any), the good records, and one error
/// per skipped line (`asynoc analyze --lenient`).
#[must_use]
pub fn parse_trace_lenient(
    text: &str,
) -> (Option<TraceMeta>, Vec<TraceRecord>, Vec<TraceParseError>) {
    let mut meta = None;
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (index, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(None) => {}
            Ok(Some(Ok(m))) => meta = Some(m),
            Ok(Some(Err(record))) => records.push(record),
            Err(e) => errors.push(TraceParseError {
                line: index + 1,
                message: e.message,
            }),
        }
    }
    (meta, records, errors)
}

/// Parses an NDJSON document's records (blank lines and any meta line
/// ignored).
///
/// # Errors
///
/// Returns a [`TraceParseError`] with the 1-based line number and the
/// offending field of the first malformed line.
pub fn parse_ndjson(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    parse_trace(text).map(|(_, records)| records)
}

/// Renders a substrate node as a trace site label.
pub type SiteFn<N> = Box<dyn Fn(N) -> String>;

/// A bounded, substrate-agnostic trace observer producing
/// [`TraceRecord`]s for every phase of a run.
pub struct TraceCollector<N> {
    site_of: SiteFn<N>,
    limit: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
}

impl<N: Copy> TraceCollector<N> {
    /// Collects up to `limit` records, labelling nodes via `site_of`.
    #[must_use]
    pub fn new(limit: usize, site_of: SiteFn<N>) -> Self {
        TraceCollector {
            site_of,
            limit,
            records: Vec::with_capacity(limit.min(4096)),
            dropped: 0,
        }
    }

    /// Collects up to `limit` records, labelling nodes by their `Debug`
    /// form.
    #[must_use]
    pub fn generic(limit: usize) -> Self
    where
        N: std::fmt::Debug,
    {
        TraceCollector::new(limit, Box::new(|node: N| format!("{node:?}")))
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Events not recorded because the limit was reached; nonzero means
    /// downstream span-tree analysis will see truncated trees.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the collector, returning its records.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Removes and returns the records buffered so far. A streaming
    /// sink drains per window, which turns `limit` into a per-window
    /// bound — the buffer never holds more than one window of records.
    #[must_use]
    pub fn drain_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

impl<N: Copy> Observer<N> for TraceCollector<N> {
    fn on_event(&mut self, at: Time, _in_window: bool, event: &SimEvent<'_, N>) {
        if self.records.len() >= self.limit {
            self.dropped += 1;
            return;
        }
        let (flit, site, action, detail, copies, busy_ps) = match event {
            SimEvent::Inject { source, flit } => {
                (*flit, format!("src{source}"), "inject", String::new(), 1, 0)
            }
            SimEvent::Forward {
                node,
                flit,
                info,
                copies,
                busy,
            } => {
                let detail = match info {
                    ForwardInfo::Routed(symbol) => symbol.to_string(),
                    ForwardInfo::Arbitrated { input } => format!("input{input}"),
                };
                (
                    *flit,
                    (self.site_of)(*node),
                    "forward",
                    detail,
                    *copies,
                    busy.as_ps(),
                )
            }
            SimEvent::Drop { node, flit, busy } => (
                *flit,
                (self.site_of)(*node),
                "throttle",
                String::new(),
                0,
                busy.as_ps(),
            ),
            SimEvent::Deliver { dest, flit } => {
                (*flit, format!("D{dest}"), "deliver", String::new(), 0, 0)
            }
            SimEvent::Fault { class, site, flit } => {
                let site = match class {
                    FaultClass::LinkStall => format!("ch{site}"),
                    FaultClass::SymbolCorrupt | FaultClass::StuckBroadcast => {
                        format!("node{site}")
                    }
                    FaultClass::FlitDrop | FaultClass::PacketLost => format!("src{site}"),
                };
                (*flit, site, "fault", class.label().to_string(), 0, 0)
            }
        };
        let descriptor = flit.descriptor();
        self.records.push(TraceRecord {
            t_ps: at.as_ps(),
            packet: descriptor.id().as_u64(),
            logical: descriptor.logical_id().as_u64(),
            flit: flit.index(),
            src: descriptor.source() as u64,
            dests: descriptor.dests().len() as u64,
            created_ps: descriptor.created_at().as_ps(),
            site,
            action: action.to_string(),
            detail,
            copies,
            busy_ps,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use asynoc_kernel::Duration;
    use asynoc_packet::{DestSet, Flit, PacketDescriptor, PacketId, RouteHeader};

    fn record() -> TraceRecord {
        TraceRecord {
            t_ps: 1_500,
            packet: 7,
            logical: 7,
            flit: 0,
            src: 2,
            dests: 3,
            created_ps: 1_200,
            site: "fo[s2:0.0]".to_string(),
            action: "forward".to_string(),
            detail: "both".to_string(),
            copies: 2,
            busy_ps: 52,
        }
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            substrate: "mot".to_string(),
            arch: Some("BasicHybridSpeculative".to_string()),
            size: 8,
            seed: 42,
            flits: 5,
            rate: 0.3,
            warmup_ps: 40_000,
            measure_ps: 400_000,
            wire_fj: Some(204.0),
            drop_fj: Some(76.0),
            dropped_events: 0,
        }
    }

    #[test]
    fn ndjson_round_trips_one_record() {
        let original = record();
        let line = original.to_ndjson();
        assert!(!line.contains('\n'));
        assert_eq!(TraceRecord::from_ndjson(&line), Ok(original));
    }

    #[test]
    fn v1_records_parse_with_defaults() {
        let line = "{\"t_ps\":1500,\"packet\":7,\"flit\":0,\"site\":\"src2\",\
                    \"action\":\"inject\",\"detail\":\"\"}";
        let record = TraceRecord::from_ndjson(line).expect("v1 line parses");
        assert_eq!(record.logical, 7, "logical defaults to packet");
        assert_eq!(record.created_ps, 0);
        assert_eq!(record.copies, 0);
    }

    #[test]
    fn ndjson_document_round_trips() {
        let records = vec![
            record(),
            TraceRecord {
                action: "throttle".to_string(),
                detail: String::new(),
                copies: 0,
                ..record()
            },
        ];
        let text = render_ndjson(&records);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(parse_ndjson(&text), Ok(records));
    }

    #[test]
    fn meta_line_round_trips() {
        let original = meta();
        let line = original.to_ndjson();
        assert_eq!(TraceMeta::from_ndjson(&line), Ok(original.clone()));
        let document = render_trace(&original, &[record()]);
        let (parsed_meta, records) = parse_trace(&document).expect("document parses");
        assert_eq!(parsed_meta, Some(original));
        assert_eq!(records, vec![record()]);
        // The record-only parser skips the meta line.
        assert_eq!(parse_ndjson(&document), Ok(vec![record()]));
    }

    #[test]
    fn meta_window_gate_matches_phases_convention() {
        let m = meta();
        assert!(!m.in_measurement(39_999));
        assert!(m.in_measurement(40_000));
        assert!(m.in_measurement(439_999));
        assert!(!m.in_measurement(440_000), "half-open upper bound");
    }

    #[test]
    fn malformed_lines_report_line_number_and_field() {
        let text = format!("{}\n{{\"t_ps\":1}}\n", record().to_ndjson());
        let err = parse_ndjson(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("packet"), "names the field: {err}");
        assert!(err.to_string().starts_with("line 2:"));
        let err = parse_ndjson("not json").unwrap_err();
        assert_eq!(err.line, 1);
        let bad_field = "{\"t_ps\":\"late\",\"packet\":1,\"flit\":0,\
                         \"site\":\"a\",\"action\":\"inject\",\"detail\":\"\"}";
        let err = parse_ndjson(bad_field).unwrap_err();
        assert!(err.message.contains("t_ps"), "{err}");
    }

    #[test]
    fn lenient_parse_skips_and_counts() {
        let text = format!(
            "{}\nnot json\n{}\n{{\"t_ps\":1}}\n",
            meta().to_ndjson(),
            record().to_ndjson()
        );
        let (parsed_meta, records, errors) = parse_trace_lenient(&text);
        assert_eq!(parsed_meta, Some(meta()));
        assert_eq!(records, vec![record()]);
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].line, 2);
        assert_eq!(errors[1].line, 4);
    }

    #[test]
    fn bad_meta_line_is_an_error() {
        let text = "{\"schema\":\"asynoc-trace-v99\"}\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("schema"), "{err}");
    }

    #[test]
    fn collector_maps_events_and_respects_limit() {
        let flit = Flit::new(
            Arc::new(PacketDescriptor::new(
                PacketId::new(3),
                0,
                DestSet::unicast(1),
                RouteHeader::for_tree(8),
                1,
                Time::from_ps(5),
            )),
            0,
        );
        let mut collector: TraceCollector<usize> = TraceCollector::generic(2);
        collector.on_event(
            Time::from_ps(10),
            false,
            &SimEvent::Inject {
                source: 4,
                flit: &flit,
            },
        );
        collector.on_event(
            Time::from_ps(20),
            true,
            &SimEvent::Forward {
                node: 9usize,
                flit: &flit,
                info: ForwardInfo::Arbitrated { input: 1 },
                copies: 1,
                busy: Duration::from_ps(52),
            },
        );
        collector.on_event(
            Time::from_ps(30),
            true,
            &SimEvent::Deliver {
                dest: 1,
                flit: &flit,
            },
        );
        assert_eq!(collector.dropped(), 1, "overflow is counted");
        let records = collector.into_records();
        assert_eq!(records.len(), 2, "limit caps the trace");
        assert_eq!(records[0].site, "src4");
        assert_eq!(records[0].action, "inject");
        assert_eq!(records[0].created_ps, 5);
        assert_eq!(records[0].copies, 1);
        assert_eq!(records[1].site, "9");
        assert_eq!(records[1].detail, "input1");
        assert_eq!(records[1].busy_ps, 52);
        assert_eq!(records[1].logical, 3);
    }
}

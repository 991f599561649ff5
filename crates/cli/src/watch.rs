//! `asynoc watch`: follow an `asynoc-stream-v1` NDJSON file (produced
//! by `--stream`) and render a live text dashboard — window rates,
//! in-flight flits, per-level busy fractions, watchpoint alerts — or
//! fold a finished stream back into the batch metrics document.
//!
//! The command is a pure consumer: it never touches the simulator. In
//! tail mode it polls the file for growth, reports each flushed window
//! as it lands, and exits when the `end` record arrives; `--once`
//! reads what is present and exits. Simulated-time stalls are the
//! producer's online watchpoints; the *host-time* stall ("the file
//! stopped growing") is detected here, since only the consumer can
//! see wall-clock silence.

use std::io::{BufRead, BufReader, Read, Seek, Write};
use std::time::Instant;

use asynoc_telemetry::{fold_stream, JsonValue, STREAM_SCHEMA};

use crate::args::Command;
use crate::commands::CliError;

/// Polls without growth before the host-time stall note fires once.
const STALL_POLLS: u32 = 25;

/// Dashboard state accumulated from the records seen so far.
#[derive(Default)]
struct Dashboard {
    levels: Vec<String>,
    window_ps: u64,
    windows: u64,
    events: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    in_flight: i64,
    last_t_ps: u64,
    traces: u64,
    watchpoints: u64,
    malformed: u64,
    ended: bool,
}

impl Dashboard {
    /// Ingests one NDJSON line, writing any dashboard output for it.
    fn ingest(&mut self, line: &str, out: &mut dyn Write) -> Result<(), CliError> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let Ok(value) = JsonValue::parse(line) else {
            self.malformed += 1;
            return Ok(());
        };
        let uint =
            |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        match value.get("type").and_then(JsonValue::as_str) {
            Some("head") => {
                if value.get("schema").and_then(JsonValue::as_str) != Some(STREAM_SCHEMA) {
                    return Err(CliError::Invalid(format!(
                        "not an {STREAM_SCHEMA:?} stream (head record has a different schema)"
                    )));
                }
                self.window_ps = uint(&value, "window_ps");
                if let Some(levels) = value.get("levels").and_then(JsonValue::as_array) {
                    self.levels = levels
                        .iter()
                        .filter_map(|l| l.as_str().map(str::to_string))
                        .collect();
                }
                let substrate = value
                    .get("substrate")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                writeln!(
                    out,
                    "watching {substrate} stream: window {} ps, {} level group(s)",
                    self.window_ps,
                    self.levels.len()
                )?;
            }
            Some("window") => {
                self.windows += 1;
                self.events += uint(&value, "events");
                self.injected += uint(&value, "injected");
                self.delivered += uint(&value, "delivered");
                self.dropped += uint(&value, "dropped");
                self.in_flight = value
                    .get("in_flight")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0) as i64;
                self.last_t_ps = uint(&value, "t_ps");
                writeln!(
                    out,
                    "window {:>4}  t={} ps  events {:>8}  delivered {:>6}  in-flight {:>5}{}",
                    uint(&value, "seq"),
                    self.last_t_ps,
                    uint(&value, "events"),
                    uint(&value, "delivered"),
                    self.in_flight,
                    self.busiest(&value)
                        .map(|(label, busy)| format!("  busiest {label} {:.0}%", busy * 100.0))
                        .unwrap_or_default(),
                )?;
            }
            Some("watchpoint") => {
                self.watchpoints += 1;
                let field = |key: &str| {
                    value
                        .get(key)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("-")
                        .to_string()
                };
                writeln!(
                    out,
                    "WATCHPOINT {} at t={} ps: site {}, {}",
                    field("kind"),
                    uint(&value, "t_ps"),
                    field("site"),
                    field("detail"),
                )?;
            }
            Some("trace") => self.traces += 1,
            Some("end") => {
                self.ended = true;
                writeln!(
                    out,
                    "stream ended: {} window(s), {} watchpoint(s)",
                    uint(&value, "windows"),
                    uint(&value, "watchpoints"),
                )?;
            }
            _ => self.malformed += 1,
        }
        Ok(())
    }

    /// The busiest level of a window record's last bin, if any.
    fn busiest(&self, window: &JsonValue) -> Option<(String, f64)> {
        let bins = window.get("bins").and_then(JsonValue::as_array)?;
        let busy = bins
            .last()?
            .get("busy_fraction")
            .and_then(JsonValue::as_array)?;
        let (index, peak) = busy
            .iter()
            .filter_map(JsonValue::as_f64)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if peak <= 0.0 {
            return None;
        }
        let label = self
            .levels
            .get(index)
            .cloned()
            .unwrap_or_else(|| format!("level {index}"));
        Some((label, peak))
    }

    /// The closing summary (once the input is exhausted).
    fn summary(&self, out: &mut dyn Write, host_elapsed: Option<f64>) -> Result<(), CliError> {
        let rate = match host_elapsed {
            Some(seconds) if seconds > 0.0 => {
                format!(" ({:.0} events/s host)", self.events as f64 / seconds)
            }
            _ => String::new(),
        };
        writeln!(
            out,
            "{} window(s) to t={} ps: {} event(s){rate}, {} injected, {} delivered, \
             {} dropped, {} in flight, {} trace record(s), {} watchpoint(s){}",
            self.windows,
            self.last_t_ps,
            self.events,
            self.injected,
            self.delivered,
            self.dropped,
            self.in_flight,
            self.traces,
            self.watchpoints,
            if self.malformed > 0 {
                format!(", {} malformed line(s) skipped", self.malformed)
            } else {
                String::new()
            },
        )?;
        Ok(())
    }
}

/// Writes the folded batch metrics document to `--fold`'s destination.
fn write_fold(text: &str, fold_out: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let doc = fold_stream(text).map_err(|e| CliError::Invalid(format!("--fold: {e}")))?;
    let rendered = doc.render_pretty();
    if fold_out == "-" {
        out.write_all(rendered.as_bytes())?;
    } else {
        std::fs::write(fold_out, &rendered)?;
        writeln!(out, "folded metrics report written to {fold_out}")?;
    }
    Ok(())
}

/// Executes a `watch` command.
///
/// # Errors
///
/// Returns a [`CliError`] when the stream cannot be read, is not an
/// `asynoc-stream-v1` document, or `--fold` fails to decode it.
pub(crate) fn execute_watch(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    let Command::Watch {
        stream_in,
        fold,
        once,
        interval_ms,
    } = command
    else {
        unreachable!("dispatched on Command::Watch");
    };
    let fold = fold.as_deref();
    if stream_in == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        return consume_complete(&text, fold, out, None);
    }
    if *once {
        let text = std::fs::read_to_string(stream_in)?;
        return consume_complete(&text, fold, out, None);
    }
    tail(stream_in, fold, *interval_ms, out)
}

/// Single pass over a complete (or cut-off) stream text.
fn consume_complete(
    text: &str,
    fold: Option<&str>,
    out: &mut dyn Write,
    host_elapsed: Option<f64>,
) -> Result<(), CliError> {
    let mut dashboard = Dashboard::default();
    for line in text.lines() {
        dashboard.ingest(line, out)?;
    }
    dashboard.summary(out, host_elapsed)?;
    if let Some(fold_out) = fold {
        write_fold(text, fold_out, out)?;
    }
    Ok(())
}

/// Tails the file until its `end` record arrives.
fn tail(
    stream_in: &str,
    fold: Option<&str>,
    interval_ms: u64,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let file = std::fs::File::open(stream_in)?;
    let mut reader = BufReader::new(file);
    let mut dashboard = Dashboard::default();
    let mut text = String::new();
    let mut carry = String::new();
    let started = Instant::now();
    let mut quiet_polls: u32 = 0;
    let mut stall_noted = false;
    loop {
        let mut grew = false;
        loop {
            carry.clear();
            // Stop at a partial trailing line: rewind so the next poll
            // re-reads it once the producer finishes writing it.
            let before = reader.stream_position()?;
            let n = reader.read_line(&mut carry)?;
            if n == 0 {
                break;
            }
            if !carry.ends_with('\n') {
                reader.seek(std::io::SeekFrom::Start(before))?;
                break;
            }
            grew = true;
            dashboard.ingest(&carry, out)?;
            text.push_str(&carry);
            if dashboard.ended {
                break;
            }
        }
        if dashboard.ended {
            break;
        }
        if grew {
            quiet_polls = 0;
            stall_noted = false;
        } else {
            quiet_polls += 1;
            if quiet_polls >= STALL_POLLS && !stall_noted {
                stall_noted = true;
                writeln!(
                    out,
                    "note: no stream growth for {:.1}s — producer gone or busy between \
                     windows (Ctrl-C to stop watching)",
                    f64::from(quiet_polls) * interval_ms as f64 / 1e3
                )?;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    dashboard.summary(out, Some(started.elapsed().as_secs_f64()))?;
    if let Some(fold_out) = fold {
        write_fold(&text, fold_out, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watch_once(text: &str, fold: Option<String>) -> (String, Result<(), CliError>) {
        let path = std::env::temp_dir().join(format!(
            "asynoc-watch-test-{}-{}.ndjson",
            std::process::id(),
            text.len()
        ));
        std::fs::write(&path, text).expect("stream fixture");
        let command = Command::Watch {
            stream_in: path.to_string_lossy().into_owned(),
            fold,
            once: true,
            interval_ms: 1,
        };
        let mut out = Vec::new();
        let result = execute_watch(&command, &mut out);
        let _ = std::fs::remove_file(&path);
        (String::from_utf8(out).expect("utf8"), result)
    }

    const HEAD: &str = r#"{"schema":"asynoc-stream-v1","type":"head","substrate":"mot","config":{"seed":42},"window_ps":2000,"bin_ps":1000,"levels":["fanout-L0"],"endpoints":8,"trace":false,"watch":{"stall_windows":8,"busy_ceiling":0.98,"waste_ceiling":0.75,"waste_min_forwards":32}}"#;

    #[test]
    fn dashboard_reports_windows_and_watchpoints() {
        let text = format!(
            "{HEAD}\n\
             {{\"type\":\"window\",\"seq\":0,\"t_ps\":0,\"events\":10,\"injected\":4,\"delivered\":2,\"dropped\":0,\"forwards\":4,\"in_flight\":2,\"latency\":null,\"bins\":[{{\"busy_fraction\":[0.5]}}]}}\n\
             {{\"type\":\"watchpoint\",\"kind\":\"no_progress\",\"seq\":1,\"t_ps\":2000,\"site\":\"n3\",\"packet\":7,\"flit\":0,\"value\":1,\"detail\":\"stalled\"}}\n\
             {{\"type\":\"end\",\"windows\":1,\"watchpoints\":1,\"sections\":{{}}}}\n"
        );
        let (out, result) = watch_once(&text, None);
        result.expect("watch succeeds");
        assert!(out.contains("watching mot stream"), "{out}");
        assert!(out.contains("window    0"), "{out}");
        assert!(out.contains("busiest fanout-L0 50%"), "{out}");
        assert!(out.contains("WATCHPOINT no_progress"), "{out}");
        assert!(out.contains("site n3"), "{out}");
        assert!(
            out.contains("stream ended: 1 window(s), 1 watchpoint(s)"),
            "{out}"
        );
    }

    #[test]
    fn non_stream_input_is_rejected() {
        let (_, result) = watch_once("{\"schema\":\"other\",\"type\":\"head\"}\n", None);
        let err = result.expect_err("wrong schema must fail");
        assert!(err.to_string().contains("asynoc-stream-v1"), "{err}");
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let text = format!("{HEAD}\nnot json at all\n");
        let (out, result) = watch_once(&text, None);
        result.expect("lenient dashboard");
        assert!(out.contains("1 malformed line(s) skipped"), "{out}");
    }

    #[test]
    fn fold_of_a_truncated_stream_fails_cleanly() {
        // A fold needs the window records to be a complete document;
        // a stream with a malformed line must fail with its line number.
        let text = format!("{HEAD}\n{{\"type\":\"window\",broken\n");
        let (_, result) = watch_once(&text, Some("-".to_string()));
        let err = result.expect_err("fold must reject malformed streams");
        assert!(err.to_string().contains("--fold"), "{err}");
    }
}

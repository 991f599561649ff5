//! Dynamic Figure 4: traces an *actual simulated* multicast packet through
//! the hybrid network, showing the speculative broadcast, the throttling of
//! the redundant copy, and the deliveries — with real timestamps.
//!
//! Usage: `cargo run --release -p asynoc-bench --bin packet_trace [--seed N]`

use asynoc::telemetry::{TraceCollector, TraceRecord};
use asynoc::{
    Architecture, Benchmark, FanoutNodeId, MotNode, Network, NetworkConfig, RunConfig, Time,
};
use asynoc_topology::FaninNodeId;

/// One trace record as a journey line: time, packet and flit, site, action.
fn journey_line(record: &TraceRecord) -> String {
    let action = match (record.action.as_str(), record.detail.strip_prefix("input")) {
        ("inject", _) => "injected".to_string(),
        ("forward", Some(input)) => format!("arbitrated (input {input})"),
        ("forward", None) => format!("forwarded [{}]", record.detail),
        ("throttle", _) => "THROTTLED".to_string(),
        ("deliver", _) => "delivered".to_string(),
        (other, _) => other.to_string(),
    };
    format!(
        "{:>12}  pkt{}[{}]  {:<12} {action}",
        Time::from_ps(record.t_ps).to_string(),
        record.packet,
        record.flit,
        record.site,
    )
}

fn main() {
    let seed = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(42u64);

    let network = Network::new(
        NetworkConfig::eight_by_eight(Architecture::OptHybridSpeculative).with_seed(seed),
    )
    .expect("valid config");
    let size = network.config().size();
    let mut collector = TraceCollector::new(
        40_000,
        Box::new(move |node| match node {
            MotNode::Fanout(flat) => FanoutNodeId::from_flat_index(size, flat).to_string(),
            MotNode::Fanin(flat) => FaninNodeId::from_flat_index(size, flat).to_string(),
        }),
    );
    network
        .run_with_observers(
            &RunConfig::quick(Benchmark::Multicast10, 0.2),
            &mut [&mut collector],
        )
        .expect("run succeeds");
    let trace = collector.records();

    // Prefer a multicast packet whose journey also shows a throttled
    // redundant copy (one whose destinations all sit in one half, so the
    // speculative root's broadcast creates waste); fall back to any
    // multicast packet.
    let count = |packet, action: &str| {
        trace
            .iter()
            .filter(|r| r.packet == packet && r.action == action)
            .count()
    };
    let mut candidates: Vec<u64> = trace
        .iter()
        .filter(|r| r.action == "deliver")
        .map(|r| r.packet)
        .filter(|&p| count(p, "deliver") > 5) // 5-flit packet, >1 destination
        .collect();
    candidates.dedup();
    let Some(&packet) = candidates
        .iter()
        .find(|&&p| count(p, "throttle") > 0)
        .or_else(|| candidates.first())
    else {
        println!("no multicast packet found in the trace window; try another --seed");
        return;
    };

    println!("Journey of multicast packet {packet} through OptHybridSpeculative (8x8):");
    println!();
    for record in trace.iter().filter(|r| r.packet == packet) {
        println!("  {}", journey_line(record));
    }
    println!();
    println!(
        "Read the header's (flit 0) path: the speculative root forwards [both] \
         unconditionally; the non-speculative node off the multicast tree reports \
         THROTTLED; every destination in the set reports one delivery."
    );
}

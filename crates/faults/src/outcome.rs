//! Instrumented fault runs and their distilled outcomes.
//!
//! The oracle never compares raw reports: both sides of a differential
//! pair are reduced to a [`RunOutcome`] — the delivered-destination
//! multiset, the mean latency, the fault ledger, and the span-tree
//! fault counters — by running the substrate with the same observer
//! stack. Clean runs use the plain observer path (no fault state is
//! even constructed, keeping the zero-cost guarantee honest); faulted
//! runs thread the armed plan through `run_with_faults`.

use std::collections::BTreeMap;

use asynoc::{Benchmark, Duration, Network, Observer, Phases, RunConfig, SimEvent, Time};
use asynoc_analysis::SpanForest;
use asynoc_engine::{ArmedFaults, FaultSummary};
use asynoc_mesh::{MeshConfig, MeshNetwork, MeshSize};
use asynoc_telemetry::{FaultLedger, TraceCollector};
use asynoc_vcmesh::{McastScheme, VcMeshConfig, VcMeshNetwork};

use crate::plan::FaultPlan;

/// Forwards one event to a caller-supplied observer slice (`&mut dyn`
/// is invariant in the trait object's lifetime, so the caller's
/// observers can't join a slice of short-lived local ones directly).
struct Extras<'x, 'y, N>(&'x mut [&'y mut dyn Observer<N>]);

impl<N> Observer<N> for Extras<'_, '_, N> {
    fn on_event(&mut self, at: Time, in_window: bool, event: &SimEvent<'_, N>) {
        for observer in self.0.iter_mut() {
            observer.on_event(at, in_window, event);
        }
    }
}

/// The delivered-destination multiset: how many header flits each
/// `(logical packet, destination)` pair received. Recoverable faults
/// must leave this identical to the clean twin's.
pub type DeliveryMultiset = BTreeMap<(u64, usize), u64>;

/// Observer recording every header delivery, ungated by the
/// measurement window (the differential oracle compares whole runs).
#[derive(Clone, Debug, Default)]
pub struct DeliveryLog {
    deliveries: DeliveryMultiset,
}

impl DeliveryLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        DeliveryLog::default()
    }

    /// The recorded multiset.
    #[must_use]
    pub fn deliveries(&self) -> &DeliveryMultiset {
        &self.deliveries
    }

    /// Consumes the log.
    #[must_use]
    pub fn into_deliveries(self) -> DeliveryMultiset {
        self.deliveries
    }
}

impl<N> Observer<N> for DeliveryLog {
    fn on_event(&mut self, _at: Time, _in_window: bool, event: &SimEvent<'_, N>) {
        let SimEvent::Deliver { dest, flit } = event else {
            return;
        };
        if flit.kind().is_header() {
            let key = (flit.descriptor().logical_id().as_u64(), *dest);
            *self.deliveries.entry(key).or_default() += 1;
        }
    }
}

/// Everything the oracle needs to know about one run.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// Header deliveries per `(logical packet, destination)`.
    pub deliveries: DeliveryMultiset,
    /// Mean measured latency, ps (`None` when nothing was measured).
    pub mean_latency_ps: Option<u64>,
    /// Measured packets still undelivered at the end of the run.
    pub packets_incomplete: usize,
    /// The observers' fault ledger (empty on clean runs).
    pub ledger: FaultLedger,
    /// The armed table's own fire counters (default on clean runs).
    pub summary: FaultSummary,
    /// Span trees touched by at least one fault record.
    pub fault_affected_trees: usize,
    /// Span trees that never closed.
    pub broken_trees: usize,
    /// Broken trees explained by fault records (never silent loss).
    pub broken_with_cause: usize,
    /// The engine's self-profile, when the run enabled profiling.
    /// Host-side metadata only — the oracle never compares it.
    pub profile: Option<Box<asynoc_engine::probe::EngineProfile>>,
}

/// Trace capacity for outcome runs: the differential tests use short
/// windows, so this comfortably captures every event.
const TRACE_CAPACITY: usize = 500_000;

/// What an outcome keeps of a substrate's report: the mean measured
/// latency, the incomplete-packet count, and the self-profile.
type Tally = (
    Option<Duration>,
    usize,
    Option<Box<asynoc_engine::probe::EngineProfile>>,
);

/// The one outcome body: registers the oracle's observers ahead of the
/// caller's, arms `plan` when it has entries (a clean run constructs no
/// fault state at all), runs the substrate through `run`, and distills
/// the result.
fn outcome<N: Copy + std::fmt::Debug, E>(
    plan: Option<&FaultPlan>,
    observers: &mut [&mut dyn Observer<N>],
    run: impl FnOnce(Option<&mut ArmedFaults>, &mut [&mut dyn Observer<N>]) -> Result<Tally, E>,
) -> Result<RunOutcome, E> {
    let mut log = DeliveryLog::new();
    let mut ledger = FaultLedger::new();
    let mut trace: TraceCollector<N> = TraceCollector::generic(TRACE_CAPACITY);
    let mut extras = Extras(observers);
    let mut extra: Vec<&mut dyn Observer<N>> = vec![&mut log, &mut ledger, &mut trace, &mut extras];
    let ((mean, packets_incomplete, profile), summary) = match plan {
        Some(plan) if !plan.entries.is_empty() => {
            let mut armed = plan.arm();
            let tally = run(Some(&mut armed), &mut extra)?;
            (tally, armed.summary())
        }
        _ => (run(None, &mut extra)?, FaultSummary::default()),
    };
    let forest = SpanForest::build(trace.records());
    Ok(RunOutcome {
        deliveries: log.into_deliveries(),
        mean_latency_ps: mean.map(|d| d.as_ps()),
        packets_incomplete,
        ledger,
        summary,
        fault_affected_trees: forest.fault_affected,
        broken_trees: forest.broken_trees,
        broken_with_cause: forest.broken_with_cause,
        profile,
    })
}

/// Runs the MoT substrate, faulted iff `plan` is non-empty, and
/// distills the outcome.
///
/// # Errors
///
/// Returns the substrate's own error on an invalid run specification.
pub fn run_mot_outcome(
    net: &Network,
    run: &RunConfig,
    plan: Option<&FaultPlan>,
) -> Result<RunOutcome, asynoc::SimError> {
    run_mot_outcome_observed(net, run, plan, &mut [])
}

/// [`run_mot_outcome`] with caller-supplied observers (e.g. a streaming
/// sink) registered after the oracle's own. Extra observers see the
/// identical, ungated event stream and cannot perturb the outcome —
/// streamed fault runs stay oracle-clean.
///
/// # Errors
///
/// Returns the substrate's own error on an invalid run specification.
pub fn run_mot_outcome_observed(
    net: &Network,
    run: &RunConfig,
    plan: Option<&FaultPlan>,
    observers: &mut [&mut dyn Observer<asynoc::MotNode>],
) -> Result<RunOutcome, asynoc::SimError> {
    outcome(plan, observers, |faults, extra| {
        let report = match faults {
            Some(faults) => net.run_with_faults(run, faults, extra)?,
            None => net.run_with_observers(run, extra)?,
        };
        Ok((
            report.latency.mean(),
            report.packets_incomplete,
            report.profile,
        ))
    })
}

/// Runs the mesh substrate, faulted iff `plan` is non-empty, and
/// distills the outcome.
///
/// # Errors
///
/// Returns the substrate's own error on an invalid run specification.
pub fn run_mesh_outcome(
    net: &MeshNetwork,
    benchmark: Benchmark,
    rate: f64,
    phases: Phases,
    plan: Option<&FaultPlan>,
) -> Result<RunOutcome, asynoc_mesh::MeshError> {
    run_mesh_outcome_observed(net, benchmark, rate, phases, plan, &mut [])
}

/// [`run_mesh_outcome`] with caller-supplied observers registered after
/// the oracle's own (see [`run_mot_outcome_observed`]).
///
/// # Errors
///
/// Returns the substrate's own error on an invalid run specification.
pub fn run_mesh_outcome_observed(
    net: &MeshNetwork,
    benchmark: Benchmark,
    rate: f64,
    phases: Phases,
    plan: Option<&FaultPlan>,
    observers: &mut [&mut dyn Observer<usize>],
) -> Result<RunOutcome, asynoc_mesh::MeshError> {
    outcome(plan, observers, |faults, extra| {
        let report = match faults {
            Some(faults) => net.run_with_faults(benchmark, rate, phases, faults, extra)?,
            None => net.run_with_observers(benchmark, rate, phases, extra)?,
        };
        Ok((
            report.latency.mean(),
            report.packets_incomplete,
            report.profile,
        ))
    })
}

/// Runs the VC mesh substrate, faulted iff `plan` is non-empty, and
/// distills the outcome.
///
/// # Errors
///
/// Returns the substrate's own error on an invalid run specification.
pub fn run_vcmesh_outcome(
    net: &VcMeshNetwork,
    benchmark: Benchmark,
    rate: f64,
    phases: Phases,
    plan: Option<&FaultPlan>,
) -> Result<RunOutcome, asynoc_mesh::MeshError> {
    run_vcmesh_outcome_observed(net, benchmark, rate, phases, plan, &mut [])
}

/// [`run_vcmesh_outcome`] with caller-supplied observers registered
/// after the oracle's own (see [`run_mot_outcome_observed`]).
///
/// # Errors
///
/// Returns the substrate's own error on an invalid run specification.
pub fn run_vcmesh_outcome_observed(
    net: &VcMeshNetwork,
    benchmark: Benchmark,
    rate: f64,
    phases: Phases,
    plan: Option<&FaultPlan>,
    observers: &mut [&mut dyn Observer<usize>],
) -> Result<RunOutcome, asynoc_mesh::MeshError> {
    outcome(plan, observers, |faults, extra| {
        let report = match faults {
            Some(faults) => net.run_with_faults(benchmark, rate, phases, faults, extra)?,
            None => net.run_with_observers(benchmark, rate, phases, extra)?,
        };
        Ok((
            report.latency.mean(),
            report.packets_incomplete,
            report.profile,
        ))
    })
}

/// Convenience constructor for the standard differential VC mesh
/// network.
///
/// # Errors
///
/// Returns the mesh's own error on a degenerate size.
pub fn vcmesh_network(
    side: usize,
    seed: u64,
    flits: u8,
    shards: usize,
    mcast: McastScheme,
) -> Result<VcMeshNetwork, asynoc_mesh::MeshError> {
    let size = MeshSize::new(side, side)?;
    VcMeshNetwork::new(
        VcMeshConfig::new(size)
            .with_seed(seed)
            .with_flits_per_packet(flits)
            .with_shards(shards)
            .with_mcast(mcast),
    )
}

/// Convenience constructor for the standard differential mesh network.
///
/// # Errors
///
/// Returns the mesh's own error on a degenerate size.
pub fn mesh_network(
    side: usize,
    seed: u64,
    flits: u8,
    shards: usize,
) -> Result<MeshNetwork, asynoc_mesh::MeshError> {
    let size = MeshSize::new(side, side)?;
    MeshNetwork::new(
        MeshConfig::new(size)
            .with_seed(seed)
            .with_flits_per_packet(flits)
            .with_shards(shards),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc::{Architecture, Duration, MotSize, NetworkConfig};

    fn quick_run() -> RunConfig {
        RunConfig::new(Benchmark::Multicast5, 0.2)
            .expect("positive rate")
            .with_phases(Phases::new(Duration::from_ns(20), Duration::from_ns(120)))
    }

    fn small_net(seed: u64) -> Network {
        Network::new(
            NetworkConfig::new(
                MotSize::new(8).expect("valid"),
                Architecture::BasicHybridSpeculative,
            )
            .with_seed(seed),
        )
        .expect("valid config")
    }

    #[test]
    fn clean_outcomes_record_deliveries_and_no_faults() {
        let net = small_net(11);
        let outcome = run_mot_outcome(&net, &quick_run(), None).expect("run succeeds");
        assert!(!outcome.deliveries.is_empty(), "headers were delivered");
        assert_eq!(outcome.ledger.total(), 0);
        assert_eq!(outcome.summary.total(), 0);
        assert_eq!(outcome.fault_affected_trees, 0);
        assert!(outcome.mean_latency_ps.is_some());
    }

    #[test]
    fn stalled_outcome_matches_clean_deliveries() {
        let net = small_net(11);
        let clean = run_mot_outcome(&net, &quick_run(), None).expect("clean run");
        let plan = FaultPlan::parse("stall:0:3:400;stall:5:2:300").expect("valid");
        let faulted = run_mot_outcome(&net, &quick_run(), Some(&plan)).expect("faulted run");
        assert_eq!(clean.deliveries, faulted.deliveries);
        assert_eq!(faulted.summary.stalls, faulted.ledger.total());
        assert!(faulted.summary.stalls > 0, "the stalls actually fired");
    }
}

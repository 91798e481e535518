//! Longest-path initialization over the slot constraint DAG.

use super::slots::{SlotKind, SlotMap};
use super::WarmTimes;
use crate::error::InferenceError;
use qni_lp::diffcon::DiffSystem;
use qni_model::log::EventLog;
use qni_trace::MaskedLog;

/// Initializes free times via the difference-constraint system.
///
/// 1. Build one node per slot, edges for `arr ≤ dep`, per-queue FIFO
///    departure order, and per-queue arrival order; fix observed slots.
/// 2. Solve for the feasibility box `[min, max]` per slot.
/// 3. Walk slots in topological order, setting each free slot to its
///    warm-start target if one is set, else `begin_service + 1/rate`
///    (when `use_targets`), clamped into `[max(preds), max_v]` — or to
///    its minimal value when `use_targets` is off (warm targets are
///    ignored there: the minimal completion is for worst-case studies).
pub fn initialize(
    masked: &MaskedLog,
    rates: &[f64],
    use_targets: bool,
    warm: Option<&WarmTimes>,
) -> Result<EventLog, InferenceError> {
    let mut log = masked.scrubbed_log();
    let slots = SlotMap::build(&log);
    if slots.is_empty() {
        return Ok(log);
    }
    let mut sys = DiffSystem::new(slots.len());
    add_constraints(&log, &slots, &mut sys)?;
    fix_observed(masked, &log, &slots, &mut sys)?;
    let sol = sys.solve()?;
    let mut value = vec![f64::NAN; slots.len()];
    let mut fixed = vec![false; slots.len()];
    for e in log.event_ids() {
        if let Some(s) = slots.arrival_slot(e) {
            if masked.mask().arrival_observed(e) {
                fixed[s] = true;
            }
        }
        if log.is_final_event(e) && masked.mask().departure_observed(e) {
            fixed[slots.departure_slot(&log, e)] = true;
        }
    }
    for &v in &sol.order {
        if fixed[v] {
            // Observed value survives scrubbing; read it back.
            // (min == max == the observation for fixed slots.)
            value[v] = sol.min[v];
            slots.write(&mut log, v, value[v]);
            continue;
        }
        let lower_now = sol
            .preds
            .of(v)
            .iter()
            .map(|&u| value[u])
            .fold(0.0f64, f64::max);
        let x = if use_targets {
            let desired = desired_value(&log, &slots, rates, warm, v);
            desired.clamp(lower_now, sol.max[v])
        } else {
            lower_now.max(sol.min[v])
        };
        value[v] = x;
        slots.write(&mut log, v, x);
    }
    Ok(log)
}

/// Target value for a free slot: the warm-start time if one is carried
/// for this slot, else service begins at `begin_service` of the event
/// whose departure this slot holds, plus the target mean service.
fn desired_value(
    log: &EventLog,
    slots: &SlotMap,
    rates: &[f64],
    warm: Option<&WarmTimes>,
    v: usize,
) -> f64 {
    if let Some(w) = warm {
        let t = match slots.kind(v) {
            SlotKind::Arrival(e) => w.transition[e.index()],
            SlotKind::Final(e) => w.final_departure[e.index()],
        };
        if t.is_finite() {
            return t;
        }
    }
    let owner = match slots.kind(v) {
        // An arrival slot holds d_{π(e)}: the serviced event is π(e).
        SlotKind::Arrival(e) => log.pi(e).expect("non-initial events have π"), // qni-lint: allow(QNI-E002) — arrival slots exist only for non-initial events
        SlotKind::Final(e) => e,
    };
    let mu = rates[log.queue_of(owner).index()];
    log.begin_service(owner) + 1.0 / mu
}

/// Adds the deterministic constraints as precedence edges.
pub(super) fn add_constraints(
    log: &EventLog,
    slots: &SlotMap,
    sys: &mut DiffSystem,
) -> Result<(), InferenceError> {
    for e in log.event_ids() {
        let dep = slots.departure_slot(log, e);
        // arr(e) ≤ dep(e); initial arrivals are the constant 0 (implicit
        // via the default lower bound).
        if let Some(arr) = slots.arrival_slot(e) {
            sys.le(arr, dep)?;
        }
        if let Some(r) = log.rho(e) {
            // FIFO departures within the queue.
            sys.le(slots.departure_slot(log, r), dep)?;
            // Arrival order within the queue (both non-initial or both
            // initial; initial arrivals carry no slot).
            if let (Some(ra), Some(ea)) = (slots.arrival_slot(r), slots.arrival_slot(e)) {
                sys.le(ra, ea)?;
            }
        }
    }
    Ok(())
}

/// Pins observed slots to their measured values.
pub(super) fn fix_observed(
    masked: &MaskedLog,
    log: &EventLog,
    slots: &SlotMap,
    sys: &mut DiffSystem,
) -> Result<(), InferenceError> {
    for e in log.event_ids() {
        if let Some(s) = slots.arrival_slot(e) {
            if masked.mask().arrival_observed(e) {
                sys.fix(s, log.arrival(e))?;
            }
        }
        if log.is_final_event(e) && masked.mask().departure_observed(e) {
            sys.fix(slots.departure_slot(log, e), log.departure(e))?;
        }
    }
    Ok(())
}

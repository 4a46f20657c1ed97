//! Energy accounting for simulated executions.
//!
//! The paper measures run-time power with onboard sensors (Jetson) or a
//! shunt resistor (Raspberry Pi) and reports energy per inference. We
//! integrate the same quantity analytically: each processor contributes its
//! active power for the time it is busy and its idle power for the rest of
//! the measurement window, plus a static board power per node.

use crate::cluster::Cluster;
use crate::node::ProcessorAddr;
use crate::PlatformError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Accumulates per-processor busy time over a measurement window and converts
/// it to energy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    busy_seconds: HashMap<ProcessorAddr, f64>,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `seconds` of busy time on a processor.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] for negative or non-finite
    /// durations.
    pub fn record_busy(&mut self, addr: ProcessorAddr, seconds: f64) -> Result<(), PlatformError> {
        Self::check_busy(seconds)?;
        *self.busy_seconds.entry(addr).or_insert(0.0) += seconds;
        Ok(())
    }

    /// Checks a busy duration the way [`EnergyMeter::record_busy`] does,
    /// without recording it — for callers that sum busy time themselves and
    /// record the total once.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] for negative or non-finite
    /// durations.
    pub fn check_busy(seconds: f64) -> Result<(), PlatformError> {
        if seconds < 0.0 || !seconds.is_finite() {
            return Err(PlatformError::InvalidParameter {
                what: format!("busy time must be non-negative and finite, got {seconds}"),
            });
        }
        Ok(())
    }

    /// Total busy time recorded for a processor.
    pub fn busy_seconds(&self, addr: ProcessorAddr) -> f64 {
        self.busy_seconds.get(&addr).copied().unwrap_or(0.0)
    }

    /// The recorded `(processor, busy_seconds)` pairs in ascending address
    /// order. Energy sums iterate this instead of the accounting map so the
    /// floating-point addition order — and therefore every reported energy —
    /// is bit-reproducible across runs.
    fn sorted_busy(&self) -> Vec<(ProcessorAddr, f64)> {
        let mut entries: Vec<(ProcessorAddr, f64)> = self
            .busy_seconds
            .iter()
            .map(|(addr, busy)| (*addr, *busy))
            .collect();
        entries.sort_by_key(|(addr, _)| *addr);
        entries
    }

    /// Total energy in joules consumed by the whole cluster over a window of
    /// `window_seconds`, counting idle power of every node whether or not it
    /// did any work.
    ///
    /// # Errors
    ///
    /// Returns an error when a recorded processor address does not exist in
    /// `cluster`.
    pub fn total_energy(
        &self,
        cluster: &Cluster,
        window_seconds: f64,
    ) -> Result<f64, PlatformError> {
        let mut energy = 0.0;
        // Static + idle power for every node over the full window.
        for node in cluster.nodes() {
            energy += node.idle_power_w() * window_seconds;
        }
        // Dynamic increment: busy processors draw (active - idle).
        for (addr, busy) in self.sorted_busy() {
            let processor = cluster.processor(addr)?;
            let busy = busy.min(window_seconds);
            energy += processor.dynamic_power_w() * busy;
        }
        Ok(energy)
    }

    /// Energy attributable to the work itself (dynamic part only): the
    /// difference between running the workload and leaving the cluster idle
    /// for the same window. This is the per-inference energy the paper's
    /// Fig. 5(b) compares.
    ///
    /// # Errors
    ///
    /// Returns an error when a recorded processor address does not exist in
    /// `cluster`.
    pub fn dynamic_energy(&self, cluster: &Cluster) -> Result<f64, PlatformError> {
        let mut energy = 0.0;
        for (addr, busy) in self.sorted_busy() {
            let processor = cluster.processor(addr)?;
            energy += processor.dynamic_power_w() * busy;
        }
        Ok(energy)
    }

    /// Clears every recorded busy time, keeping the accounting map's
    /// capacity — the reset used by `hidp_sim::SimScratch` to reuse one
    /// meter across simulations without reallocating its table.
    pub fn reset(&mut self) {
        self.busy_seconds.clear();
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        for (addr, busy) in &other.busy_seconds {
            *self.busy_seconds.entry(*addr).or_insert(0.0) += busy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeIndex, ProcessorIndex};
    use crate::presets;

    fn addr(node: usize, proc: usize) -> ProcessorAddr {
        ProcessorAddr {
            node: NodeIndex(node),
            processor: ProcessorIndex(proc),
        }
    }

    #[test]
    fn busy_time_accumulates() {
        let mut meter = EnergyMeter::new();
        meter.record_busy(addr(0, 0), 0.5).unwrap();
        meter.record_busy(addr(0, 0), 0.25).unwrap();
        assert!((meter.busy_seconds(addr(0, 0)) - 0.75).abs() < 1e-12);
        assert_eq!(meter.busy_seconds(addr(1, 0)), 0.0);
    }

    #[test]
    fn negative_busy_time_is_rejected() {
        let mut meter = EnergyMeter::new();
        assert!(meter.record_busy(addr(0, 0), -1.0).is_err());
        assert!(meter.record_busy(addr(0, 0), f64::NAN).is_err());
    }

    #[test]
    fn total_energy_includes_idle_floor() {
        let cluster = presets::paper_cluster();
        let meter = EnergyMeter::new();
        let idle_only = meter.total_energy(&cluster, 1.0).unwrap();
        assert!((idle_only - cluster.idle_power_w()).abs() < 1e-9);

        let mut busy = EnergyMeter::new();
        busy.record_busy(addr(0, 1), 0.5).unwrap();
        let with_work = busy.total_energy(&cluster, 1.0).unwrap();
        assert!(with_work > idle_only);
    }

    #[test]
    fn dynamic_energy_counts_only_busy_processors() {
        let cluster = presets::paper_cluster();
        let mut meter = EnergyMeter::new();
        meter.record_busy(addr(1, 2), 1.0).unwrap();
        let gpu = cluster.processor(addr(1, 2)).unwrap();
        let expected = gpu.active_power_w - gpu.idle_power_w;
        assert!((meter.dynamic_energy(&cluster).unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn unknown_processor_is_reported() {
        let cluster = presets::paper_cluster();
        let mut meter = EnergyMeter::new();
        meter.record_busy(addr(9, 0), 1.0).unwrap();
        assert!(meter.total_energy(&cluster, 1.0).is_err());
    }

    #[test]
    fn energy_sums_are_bit_reproducible_across_insertion_orders() {
        // The same busy set recorded in different orders must produce the
        // exact same energy: summation runs in sorted address order, not in
        // HashMap iteration order.
        let cluster = presets::paper_cluster();
        let all: Vec<_> = cluster.all_processors();
        let mut forward = EnergyMeter::new();
        for (i, addr) in all.iter().enumerate() {
            forward.record_busy(*addr, 0.1 + i as f64 * 0.013).unwrap();
        }
        let mut backward = EnergyMeter::new();
        for (i, addr) in all.iter().enumerate().rev() {
            backward.record_busy(*addr, 0.1 + i as f64 * 0.013).unwrap();
        }
        assert_eq!(
            forward.total_energy(&cluster, 1.0).unwrap(),
            backward.total_energy(&cluster, 1.0).unwrap()
        );
        assert_eq!(
            forward.dynamic_energy(&cluster).unwrap(),
            backward.dynamic_energy(&cluster).unwrap()
        );
    }

    #[test]
    fn merge_combines_busy_time() {
        let mut a = EnergyMeter::new();
        a.record_busy(addr(0, 0), 1.0).unwrap();
        let mut b = EnergyMeter::new();
        b.record_busy(addr(0, 0), 0.5).unwrap();
        b.record_busy(addr(2, 1), 0.25).unwrap();
        a.merge(&b);
        assert!((a.busy_seconds(addr(0, 0)) - 1.5).abs() < 1e-12);
        assert!((a.busy_seconds(addr(2, 1)) - 0.25).abs() < 1e-12);
    }
}

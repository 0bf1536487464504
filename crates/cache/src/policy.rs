//! The precharge-policy interface and activity accounting.
//!
//! A [`PrechargePolicy`] decides, access by access, which subarrays are
//! precharged and which are isolated. The cache calls it on every access
//! (and forwards predecode hints and hit/miss outcomes); at the end of a
//! run [`PrechargePolicy::finalize`] produces an [`ActivityReport`] — the
//! per-subarray pull-up/idle statistics that `bitline-energy` combines with
//! the circuit models, exactly the methodology of Section 3 of the paper
//! ("we gather the subarray pull-up/idle time distributions from the
//! architectural simulations and combine them with the bitline discharge
//! results from the circuit simulations").

use serde::{Deserialize, Serialize};

/// Number of logarithmic idle-duration buckets in an [`IdleHistogram`].
pub const IDLE_BUCKETS: usize = 28;

/// Histogram of isolation-episode idle durations, log2-bucketed in cycles.
///
/// Bucket `b` holds episodes whose idle time was in `[2^b, 2^(b+1))`
/// cycles; the representative duration used for energy integration is
/// `1.5 * 2^b`.
///
/// Only buckets up to the highest one recorded are stored, so an empty
/// histogram allocates nothing: a run cache holds one per subarray of
/// every run, and most stay empty or fill a few short buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleHistogram {
    /// Buckets `0..counts.len()`; the last one stored is never zero.
    counts: Vec<u64>,
}

impl IdleHistogram {
    /// Records one isolation episode of `idle_cycles`.
    pub fn record(&mut self, idle_cycles: u64) {
        let b = (idle_cycles.max(1).ilog2() as usize).min(IDLE_BUCKETS - 1);
        if b >= self.counts.len() {
            // Exact growth: a histogram lives on in the run's report.
            self.counts.reserve_exact(b + 1 - self.counts.len());
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
    }

    /// Total number of episodes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(representative_idle_cycles, count)` over non-empty
    /// buckets.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (1.5 * (1u64 << b) as f64, c))
    }

    /// The stored bucket counts: buckets `0..=b` for the highest bucket
    /// `b` recorded, empty when nothing was. Every later bucket is zero.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// All [`IDLE_BUCKETS`] raw bucket counts, zeros above the highest
    /// recorded bucket included, index `b` covering idle durations around
    /// `1.5 * 2^b` cycles (for external serialization).
    #[must_use]
    pub fn counts(&self) -> [u64; IDLE_BUCKETS] {
        let mut dense = [0; IDLE_BUCKETS];
        dense[..self.counts.len()].copy_from_slice(&self.counts);
        dense
    }

    /// Rebuilds a histogram from raw bucket counts (the inverse of
    /// [`IdleHistogram::counts`]).
    #[must_use]
    pub fn from_counts(counts: [u64; IDLE_BUCKETS]) -> IdleHistogram {
        let filled = counts.iter().rposition(|&c| c > 0).map_or(0, |b| b + 1);
        IdleHistogram { counts: counts[..filled].to_vec() }
    }

    /// Rebuilds a histogram from its stored buckets (the inverse of
    /// [`IdleHistogram::buckets`]): `None` for more than [`IDLE_BUCKETS`]
    /// or a zero last bucket, which `buckets` never returns.
    #[must_use]
    pub fn from_buckets(buckets: Vec<u64>) -> Option<IdleHistogram> {
        (buckets.len() <= IDLE_BUCKETS && buckets.last() != Some(&0))
            .then_some(IdleHistogram { counts: buckets })
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &IdleHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// Per-subarray activity gathered over a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubarrayActivity {
    /// Total accesses that touched this subarray.
    pub accesses: u64,
    /// Accesses that found the subarray isolated and paid the pull-up
    /// penalty.
    pub delayed_accesses: u64,
    /// Subarray-cycles spent pulled up (fractional to support way-granular
    /// resizing).
    pub pulled_up_cycles: f64,
    /// Off→on precharge transitions.
    pub precharge_events: u64,
    /// Subarray-cycles spent in drowsy (low retention voltage) mode — used
    /// by the drowsy-cache comparison policy; zero for bitline-isolation
    /// policies.
    pub drowsy_cycles: f64,
    /// Isolation episodes by idle duration.
    pub idle_histogram: IdleHistogram,
}

/// A fault raised by a fault-injecting policy during the access that just
/// completed, polled by the cache via
/// [`PrechargePolicy::take_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A read fell below sense margin and the margin detector caught it:
    /// the cache replays the read against a freshly precharged subarray,
    /// paying `retry_cycles` of extra latency.
    DetectedUpset {
        /// Full-precharge replay penalty in cycles.
        retry_cycles: u32,
    },
    /// An upset the ECC codec corrected in flight: the read completes
    /// with good data after `correction_cycles` of syndrome-decode
    /// latency — no replay needed.
    CorrectedUpset {
        /// Syndrome decode + correction latency in cycles.
        correction_cycles: u32,
    },
    /// An upset that escaped detection — silent data corruption. Counted,
    /// but timing is unaffected (nothing noticed).
    SilentUpset,
}

/// A resize request from a resizable-cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResizeRequest {
    /// Number of sets to keep active (power of two, <= full).
    pub active_sets: usize,
    /// Number of ways to keep active (1..=assoc).
    pub active_ways: usize,
}

/// Whole-run activity summary produced by [`PrechargePolicy::finalize`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityReport {
    /// Policy name (for reporting).
    pub policy: String,
    /// Cycles simulated.
    pub end_cycle: u64,
    /// Per-subarray activity.
    pub per_subarray: Vec<SubarrayActivity>,
}

impl ActivityReport {
    /// Total accesses across subarrays.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.per_subarray.iter().map(|s| s.accesses).sum()
    }

    /// Total delayed accesses.
    #[must_use]
    pub fn total_delayed(&self) -> u64 {
        self.per_subarray.iter().map(|s| s.delayed_accesses).sum()
    }

    /// Total pulled-up subarray-cycles.
    #[must_use]
    pub fn total_pulled_up_cycles(&self) -> f64 {
        self.per_subarray.iter().map(|s| s.pulled_up_cycles).sum()
    }

    /// Total precharge (off→on) events.
    #[must_use]
    pub fn total_precharge_events(&self) -> u64 {
        self.per_subarray.iter().map(|s| s.precharge_events).sum()
    }

    /// Average fraction of subarrays precharged at any time — the left bars
    /// of the paper's Figure 8 (1.0 for static pull-up).
    ///
    /// # Panics
    ///
    /// Panics if the report covers zero cycles.
    #[must_use]
    pub fn precharged_fraction(&self) -> f64 {
        assert!(self.end_cycle > 0, "empty report");
        let budget = (self.per_subarray.len() as f64) * self.end_cycle as f64;
        self.total_pulled_up_cycles() / budget
    }

    /// Fraction of accesses that were delayed.
    #[must_use]
    pub fn delayed_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.total_delayed() as f64 / total as f64
        }
    }

    /// Total drowsy subarray-cycles.
    #[must_use]
    pub fn total_drowsy_cycles(&self) -> f64 {
        self.per_subarray.iter().map(|s| s.drowsy_cycles).sum()
    }

    /// Merged idle histogram across subarrays.
    #[must_use]
    pub fn idle_histogram(&self) -> IdleHistogram {
        let mut h = IdleHistogram::default();
        for s in &self.per_subarray {
            h.merge(&s.idle_histogram);
        }
        h
    }
}

/// A bitline precharge controller for one cache.
///
/// Static pull-up ([`StaticPullUp`](crate::StaticPullUp)) lives here; the
/// `gated-precharge` crate re-exports it beside the policies under study:
/// oracle, on-demand, gated (with predecode hints) and resizable. The cache
/// drives the policy through this interface:
///
/// 1. [`hint`](PrechargePolicy::hint) — optional early subarray prediction
///    (predecoding, Section 6.3);
/// 2. [`access`](PrechargePolicy::access) — mandatory, returns the extra
///    cycles the access pays for bitline pull-up (0 when the subarray was
///    already precharged);
/// 3. [`observe_outcome`](PrechargePolicy::observe_outcome) — hit/miss
///    feedback (used by the resizable baseline);
/// 4. [`resize_request`](PrechargePolicy::resize_request) — polled after
///    each access; a `Some` return makes the cache resize and invalidate;
/// 5. [`finalize`](PrechargePolicy::finalize) — closes accounting.
pub trait PrechargePolicy {
    /// Policy name for reports.
    fn name(&self) -> String;

    /// Registers an access to `subarray` at `cycle`; returns extra latency
    /// cycles spent waiting for bitline pull-up.
    fn access(&mut self, subarray: usize, cycle: u64) -> u32;

    /// An access accompanied by a predecode prediction (Section 6.3): the
    /// subarray predicted from the base register a few pipeline stages
    /// earlier. A correct prediction lets the pull-up start during address
    /// calculation and hides the cold-access penalty. Default: the
    /// prediction is ignored.
    fn access_with_prediction(&mut self, subarray: usize, _predicted: usize, cycle: u64) -> u32 {
        self.access(subarray, cycle)
    }

    /// Early subarray prediction (predecoding). Default: ignored.
    fn hint(&mut self, _subarray: usize, _cycle: u64) {}

    /// Hit/miss feedback for the access just performed. Default: ignored.
    fn observe_outcome(&mut self, _hit: bool) {}

    /// Polled by the cache after each access; `Some` triggers a resize.
    fn resize_request(&mut self) -> Option<ResizeRequest> {
        None
    }

    /// Polled by the cache after each access: did the access just performed
    /// suffer a fault? Only fault-injecting decorators ever return `Some`;
    /// the default (and every plain policy) reports a fault-free access.
    fn take_fault(&mut self) -> Option<FaultEvent> {
        None
    }

    /// Informs the policy that the cache now has `active_subarrays` active
    /// (after honouring a resize request) and `active_way_fraction` of each
    /// subarray's bitlines enabled.
    fn notify_resize(&mut self, _active_subarrays: usize, _active_way_fraction: f64, _cycle: u64) {}

    /// Closes the books and returns the activity report.
    fn finalize(&mut self, end_cycle: u64) -> ActivityReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_histogram_buckets_by_log2() {
        let mut h = IdleHistogram::default();
        h.record(1);
        h.record(3);
        h.record(1000);
        assert_eq!(h.total(), 3);
        let buckets: Vec<(f64, u64)> = h.iter().collect();
        assert_eq!(buckets.len(), 3);
        assert!((buckets[0].0 - 1.5).abs() < 1e-12);
        assert!((buckets[1].0 - 3.0).abs() < 1e-12);
        // 1000 lands in [512, 1024) -> representative 768.
        assert!((buckets[2].0 - 768.0).abs() < 1e-12);
    }

    #[test]
    fn idle_histogram_clamps_zero_and_huge() {
        let mut h = IdleHistogram::default();
        h.record(0); // clamped to bucket 0
        h.record(u64::MAX); // clamped to last bucket
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn report_aggregates() {
        let a = SubarrayActivity {
            accesses: 10,
            delayed_accesses: 2,
            pulled_up_cycles: 50.0,
            ..Default::default()
        };
        let b = SubarrayActivity { accesses: 30, pulled_up_cycles: 150.0, ..Default::default() };
        let r = ActivityReport { policy: "test".into(), end_cycle: 100, per_subarray: vec![a, b] };
        assert_eq!(r.total_accesses(), 40);
        assert_eq!(r.total_delayed(), 2);
        assert!((r.precharged_fraction() - 1.0).abs() < 1e-12); // 200 / (2*100)
        assert!((r.delayed_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IdleHistogram::default();
        let mut b = IdleHistogram::default();
        a.record(4);
        b.record(4);
        b.record(8);
        a.merge(&b);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn from_buckets_inverts_buckets() {
        let mut h = IdleHistogram::default();
        assert_eq!(IdleHistogram::from_buckets(h.buckets().to_vec()), Some(h.clone()));
        for idle in [0, 5, 5, 700, u64::MAX] {
            h.record(idle);
            assert_eq!(IdleHistogram::from_buckets(h.buckets().to_vec()), Some(h.clone()));
        }
        assert_eq!(h.buckets().len(), IDLE_BUCKETS, "u64::MAX fills the last bucket");
    }

    #[test]
    fn from_buckets_rejects_what_buckets_never_returns() {
        assert_eq!(IdleHistogram::from_buckets(vec![1; IDLE_BUCKETS + 1]), None, "too many");
        assert_eq!(IdleHistogram::from_buckets(vec![3, 0]), None, "a zero last bucket");
        assert_eq!(IdleHistogram::from_buckets(vec![0]), None, "a lone zero bucket");
        let inner_zero = IdleHistogram::from_buckets(vec![0, 0, 2]).expect("zeros below the top");
        assert_eq!(inner_zero, IdleHistogram::from_counts(inner_zero.counts()));
    }
}

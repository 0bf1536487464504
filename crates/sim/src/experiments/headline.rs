//! The paper's headline result (abstract / conclusions).

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;
use bitline_energy::ProcessorEnergyModel;

use crate::experiments::{fig8, harness};
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// The headline numbers at 70 nm.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Average D-cache bitline discharge reduction (paper: 83%).
    pub d_discharge_reduction: f64,
    /// Average I-cache bitline discharge reduction (paper: 87%).
    pub i_discharge_reduction: f64,
    /// Average overall D-cache energy reduction (paper: 42%).
    pub d_overall_reduction: f64,
    /// Average overall I-cache energy reduction (paper: 36%).
    pub i_overall_reduction: f64,
    /// Average slowdown (paper: ~1%).
    pub d_slowdown: f64,
    /// Average slowdown for the I-cache configuration.
    pub i_slowdown: f64,
    /// Average fraction of subarrays precharged, D (paper: ~10%).
    pub d_precharged: f64,
    /// Average fraction of subarrays precharged, I (paper: ~6%).
    pub i_precharged: f64,
    /// L1 caches' share of whole-processor energy under static pull-up at
    /// 70 nm (Section 1's premise).
    pub cache_fraction_of_processor: f64,
    /// Replay energy as a fraction of processor energy under gated
    /// precharging (paper: <1%, Section 6.4).
    pub replay_overhead: f64,
}

/// Computes the headline from the Figure 8 experiment, plus the
/// processor-level context (cache fraction, replay overhead) over every
/// fourth benchmark of the active suite. One unit per benchmark runs its
/// Figure 8 unit and, for a context benchmark, its context run, so a
/// benchmark whose context run fails is left out of every average.
///
/// # Errors
///
/// The first skipped unit's [`SimError`] when every benchmark failed;
/// [`SimError::RunFailed`] naming the first context benchmark when every
/// context benchmark failed.
pub fn run(instrs: u64) -> Result<Headline, SimError> {
    let _span = bitline_obs::span("headline/run").field("instrs", instrs);
    let node = TechnologyNode::N70;
    let pmodel = ProcessorEnergyModel::new(node);
    let names = harness::suite_names();
    let context_names: Vec<&str> = names.iter().copied().step_by(4).collect();
    // Processor-level context at the constant threshold.
    let context = |name: &str| -> Result<(f64, f64), SimError> {
        let gated = try_run_benchmark_cached(
            name,
            &SystemSpec {
                d_policy: PolicyKind::GatedPredecode { threshold: 100 },
                i_policy: PolicyKind::Gated { threshold: 100 },
                instructions: instrs,
                ..SystemSpec::default()
            },
        )?;
        let (policy, baseline) = gated.energy(node);
        let static_proc = pmodel.assess(gated.stats.committed, 0, baseline.d, baseline.i);
        let gated_proc =
            pmodel.assess(gated.stats.committed, gated.stats.replays, policy.d, policy.i);
        Ok((static_proc.cache_fraction(), gated_proc.replay_overhead()))
    };
    let units = harness::map_names("headline", &names, |name| {
        let fig8 = fig8::unit(name, instrs)?;
        let context = context_names.contains(&name).then(|| context(name)).transpose()?;
        Ok((fig8, context))
    })?;
    let (fig8_units, context): (Vec<_>, Vec<_>) = units.into_iter().unzip();
    let (_, summary) = fig8::reduce(fig8_units);
    let avg = &summary.avg;
    let context: Vec<(f64, f64)> = context.into_iter().flatten().collect();
    if context.is_empty() {
        return Err(SimError::RunFailed {
            benchmark: context_names[0].to_owned(),
            reason: "no processor-context benchmark completed".into(),
        });
    }
    // Summed in suite order, as the serial loop did, so every bit agrees.
    let (cache_frac, replay_ovh) =
        context.iter().fold((0.0, 0.0), |(c, r), &(cache, replay)| (c + cache, r + replay));
    let n = context.len() as f64;

    Ok(Headline {
        d_discharge_reduction: 1.0 - avg.d_discharge,
        i_discharge_reduction: 1.0 - avg.i_discharge,
        d_overall_reduction: avg.d_overall_reduction,
        i_overall_reduction: avg.i_overall_reduction,
        d_slowdown: avg.d_slowdown,
        i_slowdown: avg.i_slowdown,
        d_precharged: avg.d_precharged,
        i_precharged: avg.i_precharged,
        cache_fraction_of_processor: cache_frac / n,
        replay_overhead: replay_ovh / n,
    })
}

/// Renders the headline, D-cache and I-cache side by side, as percentages.
#[must_use]
pub fn render(instrs: u64, h: &Headline) -> String {
    let mut out = format!("== headline @ 70nm ({instrs} instructions/run) ==\n");
    let pct = |x: f64| 100.0 * x;
    let _ = writeln!(
        out,
        "  discharge reduction  D {:5.1}%  I {:5.1}%",
        pct(h.d_discharge_reduction),
        pct(h.i_discharge_reduction)
    );
    let _ = writeln!(
        out,
        "  overall reduction    D {:5.1}%  I {:5.1}%",
        pct(h.d_overall_reduction),
        pct(h.i_overall_reduction)
    );
    let _ = writeln!(
        out,
        "  slowdown             D {:5.2}%  I {:5.2}%",
        pct(h.d_slowdown),
        pct(h.i_slowdown)
    );
    let _ = writeln!(
        out,
        "  precharged fraction  D {:5.1}%  I {:5.1}%",
        pct(h.d_precharged),
        pct(h.i_precharged)
    );
    let _ = writeln!(
        out,
        "  cache share of processor energy {:4.1}%  replay overhead {:5.2}%",
        pct(h.cache_fraction_of_processor),
        pct(h.replay_overhead)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_shape_holds_on_a_quick_run() {
        let h = run(5_000).expect("headline completes");
        assert!(h.d_discharge_reduction > 0.4, "D discharge reduction {}", h.d_discharge_reduction);
        assert!(h.i_discharge_reduction > 0.4, "I discharge reduction {}", h.i_discharge_reduction);
        assert!(h.d_overall_reduction > 0.1);
        assert!(h.i_overall_reduction > 0.1);
        assert!(h.d_precharged < 0.5);
    }
}

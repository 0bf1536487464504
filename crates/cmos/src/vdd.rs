//! Supply-voltage scaling: delay stretch and timing-speculation upsets.
//!
//! The paper's precharge policies assume the bitlines always charge to a
//! safe sensing margin. Running a subarray below nominal Vdd breaks that
//! assumption: gate delay stretches (alpha-power law, Sakurai & Newton,
//! JSSC 1990) while the clock — and therefore the sense-amp strobe —
//! stays fixed, so the read becomes *speculative*: past the designed
//! guardband the sense amplifier may fire before the bitlines have
//! developed enough differential, returning wrong data that must be
//! detected and replayed (TS-Cache-style timing speculation).
//!
//! This module is pure arithmetic over [`TechnologyNode`]: a delay
//! stretch `f(Vdd)` and the upset probability it implies once the
//! stretch eats through the guardband. Both are exactly neutral at the
//! nominal supply (`scale == 1.0` returns stretch 1.0 and probability
//! 0.0 bit-for-bit), which is what keeps the voltage axis byte-inert
//! against every pre-existing golden.

use crate::TechnologyNode;

/// Nominal supply scale: Table 1's Vdd for the node, untouched.
pub const NOMINAL_VDD_SCALE: f64 = 1.0;

/// Lowest supported supply scale. Below ~0.6 x nominal the alpha-power
/// model leaves the saturation regime it is fitted for (and every node's
/// scaled supply approaches threshold), so the spec layer rejects it.
pub const MIN_VDD_SCALE: f64 = 0.6;

/// Highest supported supply scale. A mild overdrive is allowed so a
/// conservative guardband step can sit *above* nominal.
pub const MAX_VDD_SCALE: f64 = 1.1;

/// Velocity-saturation exponent of the alpha-power delay law.
const ALPHA: f64 = 1.3;

/// Designed sense-timing guardband: the strobe fires this much later
/// than the nominal bitline-development delay, so stretches inside the
/// guardband are absorbed and upset-free.
const SENSE_GUARDBAND: f64 = 1.08;

/// Width of the upset-probability ramp past the guardband, in units of
/// delay stretch. Calibrated so ~0.8 x nominal at 70 nm upsets tens of
/// percent of speculative reads while ~0.9 x stays near-safe.
const UPSET_RAMP_WIDTH: f64 = 0.25;

/// Upset probability ceiling: even a hopelessly slow read occasionally
/// sense-amplifies correctly.
const MAX_UPSET_P: f64 = 0.95;

/// Threshold voltage as a fraction of the node's *nominal* supply.
///
/// Vt shrinks more slowly than Vdd across generations, so the fraction
/// grows toward the newer nodes — which is exactly why undervolting is
/// more dangerous at 70 nm than at 180 nm.
const fn vt_fraction(node: TechnologyNode) -> f64 {
    match node {
        TechnologyNode::N180 => 0.22,
        TechnologyNode::N130 => 0.24,
        TechnologyNode::N100 => 0.27,
        TechnologyNode::N70 => 0.30,
    }
}

/// Validates a supply scale: finite and within the supported band.
#[must_use]
pub fn vdd_scale_valid(scale: f64) -> bool {
    scale.is_finite() && (MIN_VDD_SCALE..=MAX_VDD_SCALE).contains(&scale)
}

/// Gate-delay stretch at `scale` x nominal Vdd, relative to nominal.
///
/// Alpha-power law: `delay ∝ Vdd / (Vdd - Vt)^alpha`, normalised so the
/// nominal supply returns exactly `1.0`. Overdrive (`scale > 1.0`)
/// returns a value below one (faster, extra margin).
///
/// # Examples
///
/// ```
/// use bitline_cmos::{vdd, TechnologyNode};
///
/// assert_eq!(vdd::delay_stretch(TechnologyNode::N70, 1.0), 1.0);
/// assert!(vdd::delay_stretch(TechnologyNode::N70, 0.8) > 1.1);
/// ```
#[must_use]
pub fn delay_stretch(node: TechnologyNode, scale: f64) -> f64 {
    if scale == NOMINAL_VDD_SCALE {
        // Exact identity at nominal: the voltage axis must be bit-inert,
        // not merely close, when it is not in use.
        return 1.0;
    }
    let vdd = node.vdd();
    let vt = vt_fraction(node) * vdd;
    let delay_at = |v: f64| v / (v - vt).powf(ALPHA);
    delay_at(scale * vdd) / delay_at(vdd)
}

/// Probability that one speculative read at `scale` x nominal Vdd
/// mis-senses and must be detected and replayed.
///
/// Zero while the delay stretch stays inside the designed guardband
/// (in particular, exactly zero at and above nominal), then a quadratic
/// ramp in the excess stretch, capped just below 1 (`MAX_UPSET_P`).
///
/// # Examples
///
/// ```
/// use bitline_cmos::{vdd, TechnologyNode};
///
/// assert_eq!(vdd::timing_upset_probability(TechnologyNode::N70, 1.0), 0.0);
/// let p = vdd::timing_upset_probability(TechnologyNode::N70, 0.8);
/// assert!(p > 0.0 && p < 1.0);
/// ```
#[must_use]
pub fn timing_upset_probability(node: TechnologyNode, scale: f64) -> f64 {
    let stretch = delay_stretch(node, scale);
    if stretch <= SENSE_GUARDBAND {
        return 0.0;
    }
    let excess = (stretch - SENSE_GUARDBAND) / UPSET_RAMP_WIDTH;
    (excess * excess).min(MAX_UPSET_P)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_scale_is_exactly_neutral() {
        for node in TechnologyNode::ALL {
            assert_eq!(delay_stretch(node, 1.0).to_bits(), 1.0f64.to_bits());
            assert_eq!(timing_upset_probability(node, 1.0).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn stretch_is_monotonic_in_undervolt() {
        for node in TechnologyNode::ALL {
            let mut prev = delay_stretch(node, MAX_VDD_SCALE);
            let mut s = MAX_VDD_SCALE - 0.05;
            while s >= MIN_VDD_SCALE - 1e-9 {
                let d = delay_stretch(node, s);
                assert!(d > prev, "stretch must grow as Vdd drops ({node}, scale {s})");
                prev = d;
                s -= 0.05;
            }
        }
    }

    #[test]
    fn overdrive_buys_margin() {
        for node in TechnologyNode::ALL {
            assert!(delay_stretch(node, 1.05) < 1.0);
            assert_eq!(timing_upset_probability(node, 1.05), 0.0);
        }
    }

    #[test]
    fn upset_probability_ramps_and_caps() {
        for node in TechnologyNode::ALL {
            let mild = timing_upset_probability(node, 0.95);
            let deep = timing_upset_probability(node, MIN_VDD_SCALE);
            assert!(mild <= deep, "deeper undervolt cannot be safer ({node})");
            assert!(deep > 0.0, "the floor of the band must upset ({node})");
            assert!(deep <= MAX_UPSET_P);
        }
    }

    #[test]
    fn newer_nodes_are_more_sensitive() {
        // At the same relative undervolt the 70 nm node must upset at
        // least as often as the 180 nm node: Vt eats a growing share of
        // the supply as the process scales.
        for scale in [0.9, 0.85, 0.8, 0.7] {
            let old = timing_upset_probability(TechnologyNode::N180, scale);
            let new = timing_upset_probability(TechnologyNode::N70, scale);
            assert!(new >= old, "70nm must be at least as fragile at scale {scale}");
        }
        assert!(
            timing_upset_probability(TechnologyNode::N70, 0.8)
                > timing_upset_probability(TechnologyNode::N180, 0.8)
        );
    }

    #[test]
    fn validity_band_rejects_non_finite_and_out_of_range() {
        assert!(vdd_scale_valid(1.0));
        assert!(vdd_scale_valid(MIN_VDD_SCALE));
        assert!(vdd_scale_valid(MAX_VDD_SCALE));
        assert!(!vdd_scale_valid(f64::NAN));
        assert!(!vdd_scale_valid(f64::INFINITY));
        assert!(!vdd_scale_valid(f64::NEG_INFINITY));
        assert!(!vdd_scale_valid(0.5));
        assert!(!vdd_scale_valid(1.2));
    }
}

//! Scaling-law helpers used by calibration tests and documentation.
//!
//! The paper (Section 4) leans on two headline trends from Borkar's scaling
//! analysis: per-generation, device switching power halves while leakage
//! power grows by ~3.5x. These constants are exposed so downstream crates
//! and tests can assert that derived models respect them.

/// Factor by which leakage *power* grows from one technology generation to
/// the next (Borkar, IEEE Micro 1999; cited as \[3\] in the paper).
///
/// # Examples
///
/// ```
/// let per_two_generations = bitline_cmos::leakage_power_growth_per_generation().powi(2);
/// assert!(per_two_generations > 12.0);
/// ```
#[must_use]
pub fn leakage_power_growth_per_generation() -> f64 {
    3.5
}

/// Factor by which the switching energy of a device shrinks from one
/// technology generation to the next.
///
/// # Examples
///
/// ```
/// assert_eq!(bitline_cmos::switching_energy_shrink_per_generation(), 0.5);
/// ```
#[must_use]
pub fn switching_energy_shrink_per_generation() -> f64 {
    0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TechnologyNode;

    /// The ratio (switching shrink / leakage growth) is the per-generation
    /// decay of bitline isolation's relative overhead: roughly 1/7. Over the
    /// three steps from 180 nm to 70 nm the overhead falls by ~340x, which is
    /// why the paper concludes isolation is nearly free at 70 nm.
    #[test]
    fn relative_overhead_falls_by_two_orders_of_magnitude_to_70nm() {
        let steps = TechnologyNode::N70.generation() - TechnologyNode::N180.generation();
        let per_gen =
            switching_energy_shrink_per_generation() / leakage_power_growth_per_generation();
        let total = per_gen.powi(steps as i32);
        assert!(total < 0.01, "total relative overhead decay {total}");
    }
}

//! Per-event and per-cycle subarray energies for the Wattch-like accounting.

use bitline_cmos::TechnologyNode;

use crate::{BitlineModel, SubarrayGeometry, TransientSim};

/// Read bitline voltage swing as a fraction of `Vdd` (an active cell read
/// establishes a 0.1-0.2 V differential; Section 5 of the paper).
const READ_SWING_FRACTION: f64 = 0.12;

/// Write drivers swing the bitlines rail-to-rail on this fraction of the
/// columns (the written word, not the whole line).
const WRITE_SWING_FRACTION: f64 = 0.25;

/// Sense-amplifier energy per column, as an equivalent capacitance in farads
/// switched through `Vdd^2`.
const SENSE_C_PER_COLUMN_F: f64 = 2.0e-15;

/// Gated precharging's decay counter + comparator energy per cache access,
/// as a fraction of one base access. The paper measures it below 0.02%
/// (Section 6.2); we use 0.01%.
const DECAY_COUNTER_ACCESS_FRACTION: f64 = 1e-4;

/// SECDED encoder/decoder energy per protected access, as a fraction of
/// one base access: an 8-bit check-generate XOR tree on writes plus a
/// syndrome tree and correction mux on reads — a few hundred gates
/// against a whole subarray access, so a few tenths of a percent.
const ECC_CODEC_ACCESS_FRACTION: f64 = 2e-3;

/// Column-count overhead of storing 8 check bits alongside each 64-bit
/// word: the check columns leak and swing exactly like data columns.
const ECC_CHECK_COLUMN_FRACTION: f64 = 8.0 / 64.0;

/// Fraction of a full-row read one 72-bit scrub word activates (a scrub
/// walks word-by-word, not line-by-line).
const SCRUB_WORD_ROW_FRACTION: f64 = 0.125;

/// Dynamic-energy exponent of supply scaling: every switching term in
/// this model is `C * Vdd^2`.
const DYNAMIC_VDD_EXPONENT: f64 = 2.0;

/// Leakage-energy exponent of supply scaling: subthreshold current
/// shrinks slightly supralinearly with Vdd in the studied band (DIBL),
/// so leakage *energy* (`I(V) * V * t`) scales as roughly `V^2.2`.
const LEAKAGE_VDD_EXPONENT: f64 = 2.2;

/// Multiplier on every dynamic (switching) energy term when the supply
/// runs at `scale` x nominal. Exactly `1.0` at nominal, bit-for-bit, so
/// the voltage axis is inert when unused.
#[must_use]
pub fn vdd_dynamic_energy_factor(scale: f64) -> f64 {
    if scale == 1.0 {
        1.0
    } else {
        scale.powf(DYNAMIC_VDD_EXPONENT)
    }
}

/// Multiplier on every leakage energy term when the supply runs at
/// `scale` x nominal. Exactly `1.0` at nominal, bit-for-bit.
#[must_use]
pub fn vdd_leakage_energy_factor(scale: f64) -> f64 {
    if scale == 1.0 {
        1.0
    } else {
        scale.powf(LEAKAGE_VDD_EXPONENT)
    }
}

/// Energy model of one cache subarray plus its share of the cache
/// periphery.
///
/// All per-event energies are in joules and all powers in watts. The model
/// combines with the architectural activity counts in `bitline-energy`
/// exactly as the paper combines CACTI/SPICE numbers with Wattch activity
/// (Section 3).
///
/// # Examples
///
/// ```
/// use bitline_circuit::{SubarrayEnergyModel, SubarrayGeometry};
/// use bitline_cmos::TechnologyNode;
///
/// let geom = SubarrayGeometry::for_cache(1024, 32, 4, 32 * 1024);
/// let m = SubarrayEnergyModel::new(TechnologyNode::N70, geom);
/// // Keeping a subarray pulled up for one cycle costs real energy at 70 nm.
/// assert!(m.pulled_up_cycle_energy_j() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SubarrayEnergyModel {
    node: TechnologyNode,
    geom: SubarrayGeometry,
    bitline: BitlineModel,
    transient: TransientSim,
    /// Per-access energy of everything outside the data subarray (tag
    /// array, H-tree routing, output drivers), in joules.
    peripheral_access_j: f64,
}

impl SubarrayEnergyModel {
    /// Builds the model with the default peripheral energy for the node.
    ///
    /// The peripheral component is calibrated so the cache-level energy
    /// split matches the paper's 70 nm breakdown (bitline discharge is
    /// roughly half of data-cache energy; see `bitline-energy` tests).
    #[must_use]
    pub fn new(node: TechnologyNode, geom: SubarrayGeometry) -> SubarrayEnergyModel {
        // ~22 pJ per access at 70 nm for a 4-ported 32 KB data cache,
        // scaled across nodes as C*Vdd^2 (feature size times supply
        // squared, normalised to 70 nm).
        let scale = node.feature_um() / 0.07 * (node.vdd() / 1.0).powi(2);
        let ports_scale = geom.ports() as f64 / 4.0;
        let peripheral_access_j = 20e-12 * scale * (0.5 + 0.5 * ports_scale);
        SubarrayEnergyModel::with_peripheral_energy(node, geom, peripheral_access_j)
    }

    /// Builds the model with an explicit peripheral per-access energy.
    #[must_use]
    pub fn with_peripheral_energy(
        node: TechnologyNode,
        geom: SubarrayGeometry,
        peripheral_access_j: f64,
    ) -> SubarrayEnergyModel {
        let bitline = BitlineModel::new(node, geom);
        let transient = TransientSim::new(bitline);
        SubarrayEnergyModel { node, geom, bitline, transient, peripheral_access_j }
    }

    /// The technology node.
    #[must_use]
    pub fn node(&self) -> TechnologyNode {
        self.node
    }

    /// The subarray geometry.
    #[must_use]
    pub fn geometry(&self) -> SubarrayGeometry {
        self.geom
    }

    /// The post-isolation transient simulator for this subarray.
    #[must_use]
    pub fn transient(&self) -> &TransientSim {
        &self.transient
    }

    /// Dynamic energy of one read access to the subarray (one port):
    /// bitline swing + wordline + sense amps, in joules.
    #[must_use]
    pub fn read_access_energy_j(&self) -> f64 {
        let vdd = self.node.vdd();
        let cols = self.geom.cols() as f64;
        let swing = cols * self.bitline.c_bitline_f() * vdd * (READ_SWING_FRACTION * vdd);
        let params = self.bitline.device_params();
        let wl_gate = cols * 2.0 * params.cell_width_um * params.c_gate_ff_per_um * 1e-15;
        let wl_wire = cols * 5.0 * params.cell_height_um / 10.0 * params.c_wire_ff_per_um * 1e-15;
        let wordline = (wl_gate + wl_wire) * vdd * vdd;
        let sense = cols * SENSE_C_PER_COLUMN_F * vdd * vdd;
        swing + wordline + sense
    }

    /// Dynamic energy of one write access (one port), in joules.
    #[must_use]
    pub fn write_access_energy_j(&self) -> f64 {
        let vdd = self.node.vdd();
        let cols = self.geom.cols() as f64;
        let full_swing = WRITE_SWING_FRACTION * cols * self.bitline.c_bitline_f() * vdd * vdd;
        self.read_access_energy_j() + full_swing
    }

    /// Per-access energy of the cache periphery (tag, routing, output), in
    /// joules.
    #[must_use]
    pub fn peripheral_access_energy_j(&self) -> f64 {
        self.peripheral_access_j
    }

    /// Bitline leakage energy burnt by one *pulled-up* subarray over one
    /// clock cycle, in joules. This is the "bitline discharge" the paper's
    /// techniques eliminate.
    #[must_use]
    pub fn pulled_up_cycle_energy_j(&self) -> f64 {
        self.bitline.static_power_w() * self.node.cycle_time_ns() * 1e-9
    }

    /// Internal (non-bitline) cell leakage energy per cycle, in joules.
    /// Unaffected by bitline isolation.
    #[must_use]
    pub fn cell_leakage_cycle_energy_j(&self) -> f64 {
        self.bitline.cell_internal_power_w() * self.node.cycle_time_ns() * 1e-9
    }

    /// Supply energy of one isolation episode lasting `idle_cycles`, in
    /// joules (gate switching both ways plus bitline re-pump).
    #[must_use]
    pub fn isolation_episode_energy_j(&self, idle_cycles: u64) -> f64 {
        let t_idle_ns = idle_cycles as f64 * self.node.cycle_time_ns();
        self.transient.isolation_episode_energy_j(t_idle_ns)
    }

    /// Energy of the gated-precharging decay counter + comparator per cache
    /// access, in joules (<0.02% of a base access; Section 6.2).
    #[must_use]
    pub fn decay_counter_energy_j(&self) -> f64 {
        DECAY_COUNTER_ACCESS_FRACTION * (self.read_access_energy_j() + self.peripheral_access_j)
    }

    /// SECDED encode/decode energy per protected access, in joules.
    #[must_use]
    pub fn ecc_codec_energy_j(&self) -> f64 {
        ECC_CODEC_ACCESS_FRACTION * (self.read_access_energy_j() + self.peripheral_access_j)
    }

    /// Column-array overhead factor of the 8 check bits per 64-bit word
    /// (applied to leakage and swing energies of a protected array).
    #[must_use]
    pub fn ecc_check_column_fraction(&self) -> f64 {
        ECC_CHECK_COLUMN_FRACTION
    }

    /// Energy of scrubbing one 72-bit word: a partial-row read through
    /// the codec plus the corrected write-back, in joules.
    #[must_use]
    pub fn ecc_scrub_word_energy_j(&self) -> f64 {
        SCRUB_WORD_ROW_FRACTION * self.read_access_energy_j() + self.ecc_codec_energy_j()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(node: TechnologyNode, ports: usize) -> SubarrayEnergyModel {
        SubarrayEnergyModel::new(node, SubarrayGeometry::for_cache(1024, 32, ports, 32 * 1024))
    }

    #[test]
    fn writes_cost_more_than_reads() {
        for node in TechnologyNode::ALL {
            let m = model(node, 4);
            assert!(m.write_access_energy_j() > m.read_access_energy_j(), "{node}");
        }
    }

    #[test]
    fn pulled_up_cycle_energy_grows_towards_70nm() {
        // Leakage power grows 3.5x/generation while the cycle shrinks ~1.4x,
        // so per-cycle bitline burn still grows ~2.5x per generation.
        let mut prev = 0.0;
        for node in TechnologyNode::ALL {
            let e = model(node, 4).pulled_up_cycle_energy_j();
            assert!(e > 2.0 * prev, "{node}: {e:.3e} vs {prev:.3e}");
            prev = e;
        }
    }

    #[test]
    fn dynamic_access_energy_shrinks_towards_70nm() {
        let mut prev = f64::INFINITY;
        for node in TechnologyNode::ALL {
            let e = model(node, 4).read_access_energy_j();
            assert!(e < prev, "{node}");
            prev = e;
        }
    }

    #[test]
    fn decay_counter_overhead_is_below_the_papers_bound() {
        // Paper: "less than 0.02% of the energy required for one base cache
        // access" (Section 6.2).
        for node in TechnologyNode::ALL {
            let m = model(node, 4);
            let base = m.read_access_energy_j() + m.peripheral_access_energy_j();
            assert!(m.decay_counter_energy_j() / base < 2e-4, "{node}");
        }
    }

    #[test]
    fn leakage_dominates_dynamic_per_access_at_70nm_only() {
        // At 70 nm keeping all 32 subarrays pulled up for one cycle costs
        // more than one access's dynamic energy; at 180 nm it is the
        // reverse. This crossover is the whole premise of the paper.
        let new = model(TechnologyNode::N70, 4);
        let burn_new = 32.0 * new.pulled_up_cycle_energy_j();
        let access_new = new.read_access_energy_j() + new.peripheral_access_energy_j();
        assert!(burn_new > access_new, "{burn_new:.3e} vs {access_new:.3e}");

        let old = model(TechnologyNode::N180, 4);
        let burn_old = 32.0 * old.pulled_up_cycle_energy_j();
        let access_old = old.read_access_energy_j() + old.peripheral_access_energy_j();
        assert!(burn_old < access_old, "{burn_old:.3e} vs {access_old:.3e}");
    }

    #[test]
    fn ecc_overheads_are_small_but_real() {
        for node in TechnologyNode::ALL {
            let m = model(node, 4);
            let base = m.read_access_energy_j() + m.peripheral_access_energy_j();
            let codec = m.ecc_codec_energy_j();
            assert!(codec > 0.0, "{node}");
            assert!(codec / base < 5e-3, "{node}: codec must stay sub-percent");
            // One scrub word costs less than a full access but more than
            // the codec alone (it moves real bitline charge).
            let scrub = m.ecc_scrub_word_energy_j();
            assert!(scrub > codec, "{node}");
            assert!(scrub < base, "{node}");
            assert!((m.ecc_check_column_fraction() - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn vdd_factors_are_exact_at_nominal_and_monotonic_below() {
        assert_eq!(vdd_dynamic_energy_factor(1.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(vdd_leakage_energy_factor(1.0).to_bits(), 1.0f64.to_bits());
        let mut prev_d = 1.0;
        let mut prev_l = 1.0;
        for scale in [0.95, 0.9, 0.85, 0.8, 0.7, 0.6] {
            let d = vdd_dynamic_energy_factor(scale);
            let l = vdd_leakage_energy_factor(scale);
            assert!(d < prev_d && d > 0.0, "dynamic factor at {scale}");
            assert!(l < prev_l && l > 0.0, "leakage factor at {scale}");
            // DIBL: leakage energy falls at least as fast as dynamic.
            assert!(l <= d, "leakage must not outpace dynamic at {scale}");
            prev_d = d;
            prev_l = l;
        }
        // Overdrive prices upward.
        assert!(vdd_dynamic_energy_factor(1.05) > 1.0);
        assert!(vdd_leakage_energy_factor(1.05) > 1.0);
    }

    #[test]
    fn isolation_episode_energy_saturates_with_idle_time() {
        let m = model(TechnologyNode::N70, 4);
        let short = m.isolation_episode_energy_j(2);
        let long = m.isolation_episode_energy_j(10_000);
        let longer = m.isolation_episode_energy_j(100_000);
        assert!(long >= short);
        assert!((longer - long) / long < 0.01, "episode energy should saturate");
    }
}

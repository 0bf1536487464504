//! Tables 1-3 of the paper.

use std::fmt::Write as _;

use bitline_cache::{CacheConfig, MemorySystemConfig};
use bitline_circuit::DecoderModel;
use bitline_cmos::TechnologyNode;
use bitline_cpu::CpuConfig;

/// One row of Table 1 (circuit parameters).
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Technology node.
    pub node: TechnologyNode,
    /// Feature size in nm.
    pub feature_nm: u32,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
}

/// Table 1: the four studied nodes.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    TechnologyNode::ALL
        .into_iter()
        .map(|node| Table1Row {
            node,
            feature_nm: node.feature_nm(),
            vdd: node.vdd(),
            clock_ghz: node.clock_ghz(),
        })
        .collect()
}

/// Renders Table 1: `feature_nm  vdd_v  clock_ghz` per node.
#[must_use]
pub fn render_table1() -> String {
    let mut out = String::from("# feature_nm  vdd_v  clock_ghz\n");
    for r in table1() {
        let _ = writeln!(out, "{} {:.1} {:.1}", r.feature_nm, r.vdd, r.clock_ghz);
    }
    out
}

/// Table 2: base system configuration as `(parameter, value)` strings.
#[must_use]
pub fn table2() -> Vec<(String, String)> {
    let cpu = CpuConfig::default();
    let mem = MemorySystemConfig::default();
    vec![
        ("Issue & decode".into(), format!("{} instructions per cycle", cpu.issue_width)),
        ("Reorder buffer".into(), format!("{} entries", cpu.rob_entries)),
        ("Issue queue".into(), format!("{} entries", cpu.iq_entries)),
        ("Load/Store queue".into(), format!("{} entries", cpu.lsq_entries)),
        ("Branch predictor".into(), "combination (bimodal + gshare + chooser)".into()),
        (
            "L1 i-cache".into(),
            format!(
                "{}K; {}-way; {}-cycle; 2RW ports",
                mem.l1i.size_bytes / 1024,
                mem.l1i.assoc,
                mem.l1i.hit_latency
            ),
        ),
        (
            "L1 d-cache".into(),
            format!(
                "{}K; {}-way; {}-cycle; 2RW/2R ports",
                mem.l1d.size_bytes / 1024,
                mem.l1d.assoc,
                mem.l1d.hit_latency
            ),
        ),
        (
            "L2 unified cache".into(),
            format!(
                "{}K; {}-way; {}-cycle latency",
                mem.l2_size / 1024,
                mem.l2_assoc,
                mem.l2_latency
            ),
        ),
        (
            "Memory".into(),
            format!("{} cycles + {} cycles per 8 bytes", mem.mem_latency, mem.mem_cycles_per_8b),
        ),
        ("MSHRs".into(), format!("{} entries", mem.mshr_entries)),
    ]
}

/// Renders Table 2: one `parameter  value` row per structure.
#[must_use]
pub fn render_table2() -> String {
    let mut out = String::from("# parameter         value\n");
    for (parameter, value) in table2() {
        let _ = writeln!(out, "{parameter:<18}  {value}");
    }
    out
}

/// One row of Table 3 (decode and precharge delays, in ns).
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Subarray size in bytes.
    pub subarray_bytes: usize,
    /// Technology node.
    pub node: TechnologyNode,
    /// Stage 1: decode drive.
    pub drive_ns: f64,
    /// Stage 2: predecode.
    pub predecode_ns: f64,
    /// Stage 3: final decode.
    pub final_ns: f64,
    /// Worst-case bitline pull-up.
    pub pullup_ns: f64,
}

/// Table 3 rows for 1 KB and 4 KB subarrays across all nodes.
#[must_use]
pub fn table3() -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for subarray_bytes in [1024usize, 4096] {
        for node in TechnologyNode::ALL {
            let cfg = CacheConfig::l1_data().with_subarray_bytes(subarray_bytes);
            let m = DecoderModel::new(node, cfg.geometry());
            let d = m.decode_delays();
            rows.push(Table3Row {
                subarray_bytes,
                node,
                drive_ns: d.drive_ns,
                predecode_ns: d.predecode_ns,
                final_ns: d.final_ns,
                pullup_ns: m.worst_case_pullup_ns(),
            });
        }
    }
    rows
}

/// Renders Table 3: `subarray_bytes  feature_nm  drive_ns  predecode_ns
/// final_ns  pullup_ns` per (size, node).
#[must_use]
pub fn render_table3() -> String {
    let mut out =
        String::from("# subarray_bytes  feature_nm  drive_ns  predecode_ns  final_ns  pullup_ns\n");
    for r in table3() {
        let _ = writeln!(
            out,
            "{} {} {:.3} {:.3} {:.3} {:.3}",
            r.subarray_bytes,
            r.node.feature_nm(),
            r.drive_ns,
            r.predecode_ns,
            r.final_ns,
            r.pullup_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_rows_matching_the_paper() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].feature_nm, 180);
        assert_eq!(t[3].clock_ghz, 5.0);
    }

    #[test]
    fn table2_covers_the_major_structures() {
        let t = table2();
        assert!(t.iter().any(|(k, v)| k.contains("Reorder") && v.contains("128")));
        assert!(t.iter().any(|(k, v)| k.contains("d-cache") && v.contains("3-cycle")));
        assert!(t.iter().any(|(k, v)| k.contains("MSHR") && v.contains("8")));
    }

    #[test]
    fn table3_pullup_always_exceeds_final_decode() {
        for row in table3() {
            assert!(row.pullup_ns > row.final_ns, "{:?}", row);
        }
    }
}

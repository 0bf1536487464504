//! Figure 2: power dissipation through bitlines after isolation.

use std::fmt::Write as _;

use bitline_cache::CacheConfig;
use bitline_circuit::{BitlineModel, TransientPoint, TransientSim};
use bitline_cmos::TechnologyNode;

/// One node's transient series.
#[derive(Debug, Clone)]
pub struct Fig2Series {
    /// Technology node.
    pub node: TechnologyNode,
    /// Normalised power samples over the plotted window.
    pub points: Vec<TransientPoint>,
    /// Break-even idle time for one isolation episode, in cycles.
    pub break_even_cycles: f64,
}

/// Reproduces Figure 2: the post-isolation bitline power transient of a
/// 1 KB subarray, normalised to static pull-up, for each node, on the
/// paper's 0-400+ns time base.
#[must_use]
pub fn run(points: usize) -> Vec<Fig2Series> {
    let _span = bitline_obs::span("fig2/run").field("points", points);
    let geom = CacheConfig::l1_data().with_subarray_bytes(1024).geometry();
    TechnologyNode::ALL
        .into_iter()
        .map(|node| {
            let sim = TransientSim::new(BitlineModel::new(node, geom));
            Fig2Series {
                node,
                points: sim.series(400.0, points),
                break_even_cycles: sim.break_even_idle_cycles(),
            }
        })
        .collect()
}

/// Renders the figure: `t_ns` then each node's normalised power, per
/// sample, then a `#` line with each node's break-even idle cycles.
#[must_use]
pub fn render(series: &[Fig2Series]) -> String {
    let mut out = String::from("# t_ns  normalized_power per node\n# t");
    for s in series {
        let _ = write!(out, " {}", s.node);
    }
    out.push('\n');
    let points = series.first().map_or(0, |s| s.points.len());
    for i in 0..points {
        let _ = write!(out, "{:.2}", series[0].points[i].t_ns);
        for s in series {
            let _ = write!(out, " {:.5}", s.points[i].normalized_power);
        }
        out.push('\n');
    }
    out.push_str("# break-even idle cycles:");
    for s in series {
        let _ = write!(out, "  {} {:.0}", s.node, s.break_even_cycles);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure2_shape() {
        let series = run(81);
        assert_eq!(series.len(), 4);
        // 180 nm: overhead approaching ~195% early, settling over ~500 ns.
        let n180 = &series[0];
        let early = n180.points[1].normalized_power; // t = 5 ns
        assert!((1.6..=2.2).contains(&early), "180 nm early power {early}");
        // 70 nm: nothing visible on this time base.
        let n70 = &series[3];
        assert!(n70.points[1].normalized_power < 0.1);
        // Break-even idle falls by orders of magnitude.
        assert!(n180.break_even_cycles > 20.0 * n70.break_even_cycles);
    }
}

//! The paper's experiments, one module each, and [`ALL`], the table of
//! `bitline-sim` commands that runs them.
//!
//! Each typed driver (`run`) returns plain data rows; its module's
//! `render` turns them into the text `bitline-sim <name>` prints
//! (`ablations`, whose rows nothing else reads, renders as it runs). That
//! text is whitespace-separated columns under `#` header lines, so it is
//! also the experiment's gnuplot `.dat` file (`bitline-sim fig9 >
//! fig9.dat`) and, at the golden budget, its golden. See `DESIGN.md` for
//! the experiment index and `EXPERIMENTS.md` for paper-vs-measured values.

pub mod ablations;
pub mod harness;

pub mod extensions;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod hierarchy;
pub mod locality;
pub mod ondemand;
pub mod reliability;
mod sweep;
pub mod tables;
pub mod voltage;

pub use sweep::{optimal_gated, GatedSweep, SweptCache, MAX_SLOWDOWN, THRESHOLDS};

use crate::{SimError, SystemSpec};

/// One `bitline-sim` experiment command.
pub struct Experiment {
    /// Command name; also the stem of its golden file.
    pub name: &'static str,
    /// What it reproduces, for `--help`.
    pub about: &'static str,
    /// Spec keys it takes from the command line. It sets every other
    /// field itself, so any other spec flag is rejected.
    pub takes: &'static [&'static str],
    /// Runs the experiment at the given instructions per run and renders
    /// its rows. Nothing is rendered unless every row is computed.
    pub run: fn(u64, &SystemSpec) -> Result<String, SimError>,
}

/// Every experiment, in paper order, then the studies beyond the paper.
pub static ALL: [Experiment; 17] = [
    Experiment {
        name: "table1",
        about: "Table 1: feature size, supply and clock per node",
        takes: &[],
        run: |_, _| Ok(tables::render_table1()),
    },
    Experiment {
        name: "table2",
        about: "Table 2: base system configuration",
        takes: &[],
        run: |_, _| Ok(tables::render_table2()),
    },
    Experiment {
        name: "table3",
        about: "Table 3: decode and worst-case pull-up delays",
        takes: &[],
        run: |_, _| Ok(tables::render_table3()),
    },
    Experiment {
        name: "fig2",
        about: "Figure 2: bitline power after isolation, and break-even idle",
        takes: &[],
        // One sample every 20 ns over the paper's 400 ns window.
        run: |_, _| Ok(fig2::render(&fig2::run(21))),
    },
    Experiment {
        name: "fig3",
        about: "Figure 3: oracle precharging's relative bitline discharge",
        takes: &[],
        run: |instrs, _| fig3::run(instrs).map(|(rows, avg)| fig3::render(&rows, &avg)),
    },
    Experiment {
        name: "fig5",
        about: "Figure 5: access CDF over subarray access intervals",
        takes: &[],
        run: |instrs, _| locality::run(instrs).map(|res| locality::render_fig5(&res)),
    },
    Experiment {
        name: "fig6",
        about: "Figure 6: fraction of hot subarrays per threshold",
        takes: &[],
        run: |instrs, _| locality::run(instrs).map(|res| locality::render_fig6(&res)),
    },
    Experiment {
        name: "ondemand",
        about: "Section 5: on-demand precharging's slowdown",
        takes: &[],
        run: |instrs, _| ondemand::run(instrs).map(|(rows, avg)| ondemand::render(&rows, &avg)),
    },
    Experiment {
        name: "fig8",
        about: "Figure 8: gated precharging at per-benchmark optimum thresholds",
        takes: &[],
        run: |instrs, _| fig8::run(instrs).map(|(rows, summary)| fig8::render(&rows, &summary)),
    },
    Experiment {
        name: "fig9",
        about: "Figure 9: gated precharging vs resizable caches per node",
        takes: &[],
        run: |instrs, _| fig9::run(instrs).map(|rows| fig9::render(&rows)),
    },
    Experiment {
        name: "fig10",
        about: "Figure 10: precharged subarrays per subarray size",
        takes: &[],
        run: |instrs, _| fig10::run(instrs).map(|rows| fig10::render(&rows)),
    },
    Experiment {
        name: "headline",
        about: "the abstract's savings, slowdown and energy shares at 70nm",
        takes: &[],
        run: |instrs, _| headline::run(instrs).map(|h| headline::render(instrs, &h)),
    },
    Experiment {
        name: "ablations",
        about: "predecoding, replay scope and way prediction ablations",
        takes: &[],
        run: |instrs, _| ablations::run(instrs),
    },
    Experiment {
        name: "reliability",
        about: "SECDED protection vs node: corrected, DUE, SDC, energy",
        takes: &["fault_rate", "fault_seed", "scrub_period"],
        run: |instrs, spec| {
            reliability::run(instrs, &spec.faults).map(|rows| reliability::render(&rows))
        },
    },
    Experiment {
        name: "hierarchy",
        about: "two- and three-level caches under each leakage mode",
        takes: &[],
        run: |instrs, _| hierarchy::run(instrs).map(|rows| hierarchy::render(&rows)),
    },
    Experiment {
        name: "voltage",
        about: "supply scaling, static or governed: energy vs replays vs SDC",
        takes: &[],
        run: |instrs, _| voltage::run(instrs).map(|rows| voltage::render(&rows)),
    },
    Experiment {
        name: "extensions",
        about: "adaptive and drowsy D-cache policies; the 21164's on-demand L2",
        takes: &[],
        run: |instrs, _| extensions::run(instrs).map(|ext| extensions::render(&ext)),
    },
];

/// The experiment command called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

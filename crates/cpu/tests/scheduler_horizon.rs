//! Scheduler events far in the future — a memory latency past the
//! scheduler's cycle horizon — must fire exactly when they are due.

use bitline_cache::{MemorySystem, MemorySystemConfig};
use bitline_cpu::{Cpu, CpuConfig};
use bitline_trace::{Instr, InstrKind, MemRef, ReplayTrace};
use gated_precharge::StaticPullUp;

/// Cycles to commit one cold load and its dependent ALU op when main
/// memory answers after `mem_latency` cycles.
fn load_then_use_cycles(mem_latency: u32) -> u64 {
    let cfg = MemorySystemConfig { mem_latency, ..MemorySystemConfig::default() };
    let mem = MemorySystem::new(
        cfg,
        Box::new(StaticPullUp::new(cfg.l1d.subarrays())),
        Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
    );
    let addr = 0x1000_0000;
    let trace = vec![
        Instr::new(0x40_0000, InstrKind::Load).with_dest(1).with_mem(MemRef {
            addr,
            base: addr,
            size: 8,
        }),
        Instr::new(0x40_0004, InstrKind::IntAlu).with_dest(2).with_srcs(Some(1), None),
    ];
    let mut cpu = Cpu::new(CpuConfig::default(), mem);
    let stats = cpu.run(&mut ReplayTrace::new(trace), 2);
    assert_eq!(stats.load_misspeculations, 1, "the cold load misses its hit speculation");
    stats.cycles
}

/// The instruction fetch and the load each miss to memory once, in
/// series: the I-cache miss holds fetch until its fill (less the 2-cycle
/// hit) is in, the load dispatches the cycle after and issues the cycle
/// after that, its consumer issues exactly one load-to-use latency later,
/// completes a cycle after, and commits at the end of that cycle.
fn expected_cycles(mem_latency: u32) -> u64 {
    let fill = u64::from(12 + 16 + mem_latency);
    let load_issue = (2 + fill - 2) + 2;
    let load_to_use = 3 + fill;
    load_issue + load_to_use + 2
}

/// Latencies straddling a 1024-cycle horizon, and one far past it: the
/// fill's completion lands 1011 to 1041 (and 1931) cycles after the load
/// issues, and the consumer, re-checked at the load's resolution 6 cycles
/// in, sleeps 1005 to 1035 (and 1925) cycles.
#[test]
fn fills_around_and_past_the_horizon_keep_exact_load_to_use_latency() {
    assert_eq!(expected_cycles(1900), 3_863);
    for mem_latency in (980..=1010).chain([1900]) {
        assert_eq!(
            load_then_use_cycles(mem_latency),
            expected_cycles(mem_latency),
            "{mem_latency}"
        );
    }
}

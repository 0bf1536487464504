//! The shim's own contract: how many cases a property runs, how its cases
//! are seeded, what each strategy can draw, and how a failing property
//! reports itself.

use std::cell::Cell;
use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::TestRng;

thread_local! {
    /// Cases run by the counting properties below on this thread. Each
    /// test runs on its own thread, so a direct call counts alone.
    static CASES: Cell<u32> = const { Cell::new(0) };
}

/// Runs `property` on this thread and returns how many cases it ran.
fn cases_run(property: fn()) -> u32 {
    CASES.with(|c| c.set(0));
    property();
    CASES.with(Cell::get)
}

/// `n` draws from `strategy` on a fixed stream.
fn draws<S: Strategy>(strategy: S, n: usize) -> Vec<S::Value> {
    let mut rng = TestRng::deterministic("engine::draws");
    (0..n).map(|_| strategy.sample(&mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(17))]
    /// Counts its cases; see `a_property_runs_its_configured_case_count`.
    #[test]
    fn counted_with_config(_x in 0u8..4) {
        CASES.with(|c| c.set(c.get() + 1));
    }
}

proptest! {
    /// Counts its cases; see `a_property_runs_64_cases_by_default`.
    #[test]
    fn counted_by_default(_x in 0u8..4) {
        CASES.with(|c| c.set(c.get() + 1));
    }

    /// Every case of a property failing at its first case names it.
    #[test]
    #[should_panic(expected = "proptest `fails_at_once` failed at case 1/64: assertion failed: x > 9")]
    fn fails_at_once(x in 0u8..4) {
        prop_assert!(x > 9);
    }

    /// A failed `prop_assert_eq!` shows both sides and its message.
    #[test]
    #[should_panic(expected = "assertion failed: `3 == 4`: off by one")]
    fn eq_failures_show_both_sides(x in 3u8..4) {
        prop_assert_eq!(x, x + 1, "off by {}", "one");
    }

    /// A failed `prop_assert_ne!` shows both sides.
    #[test]
    #[should_panic(expected = "assertion failed: `5 != 5`")]
    fn ne_failures_show_both_sides(x in 5u8..=5) {
        prop_assert_ne!(x, 5);
    }
}

#[test]
fn a_property_runs_its_configured_case_count() {
    assert_eq!(cases_run(counted_with_config), 17);
}

#[test]
fn a_property_runs_64_cases_by_default() {
    assert_eq!(cases_run(counted_by_default), 64);
}

#[test]
fn case_streams_are_seeded_by_test_name() {
    let stream = |name: &str| {
        let mut rng = TestRng::deterministic(name);
        (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(stream("crate::a"), stream("crate::a"), "a name replays its stream");
    assert_ne!(stream("crate::a"), stream("crate::b"), "names get their own streams");
}

#[test]
fn below_never_reaches_its_bound() {
    let mut rng = TestRng::deterministic("engine::below");
    for bound in [1, 2, 3, 7, 1 << 32, u64::MAX] {
        for _ in 0..2_000 {
            assert!(rng.below(bound) < bound, "bound {bound}");
        }
    }
    let seen: BTreeSet<u64> = (0..200).map(|_| rng.below(3)).collect();
    assert_eq!(seen, BTreeSet::from([0, 1, 2]));
}

#[test]
fn unit_draws_lie_in_the_half_open_unit_interval() {
    let mut rng = TestRng::deterministic("engine::unit");
    for _ in 0..10_000 {
        let u = rng.unit_f64();
        assert!((0.0..1.0).contains(&u), "{u}");
    }
}

#[test]
fn exclusive_ranges_reach_both_ends_and_no_further() {
    let seen: BTreeSet<u8> = draws(3u8..7, 400).into_iter().collect();
    assert_eq!(seen, BTreeSet::from([3, 4, 5, 6]));
    let seen: BTreeSet<i32> = draws(-2i32..1, 400).into_iter().collect();
    assert_eq!(seen, BTreeSet::from([-2, -1, 0]));
}

#[test]
fn inclusive_ranges_reach_both_ends_and_no_further() {
    let seen: BTreeSet<u16> = draws(10u16..=13, 400).into_iter().collect();
    assert_eq!(seen, BTreeSet::from([10, 11, 12, 13]));
    let seen: BTreeSet<i8> = draws(i8::MIN..=i8::MIN + 1, 400).into_iter().collect();
    assert_eq!(seen, BTreeSet::from([i8::MIN, i8::MIN + 1]));
}

#[test]
fn a_full_width_inclusive_range_draws_across_the_type() {
    let unsigned = draws(0u64..=u64::MAX, 400);
    assert!(unsigned.iter().any(|&v| v > u64::MAX / 2));
    assert!(unsigned.iter().any(|&v| v < u64::MAX / 2));
    let signed = draws(i64::MIN..=i64::MAX, 400);
    assert!(signed.iter().any(|&v| v < 0) && signed.iter().any(|&v| v > 0));
}

#[test]
fn float_ranges_stay_half_open() {
    for v in draws(-1.5f64..2.5, 10_000) {
        assert!((-1.5..2.5).contains(&v), "{v}");
    }
}

#[test]
fn any_reaches_the_edges_of_its_type() {
    let bytes = draws(any::<u8>(), 400);
    assert!(bytes.contains(&0) && bytes.contains(&u8::MAX) && bytes.contains(&1));
    let flags: BTreeSet<bool> = draws(any::<bool>(), 100).into_iter().collect();
    assert_eq!(flags, BTreeSet::from([false, true]));
}

#[test]
fn vec_lengths_follow_their_size_range() {
    let lens = |size: std::ops::Range<usize>| -> BTreeSet<usize> {
        draws(prop::collection::vec(any::<u8>(), size), 400).iter().map(Vec::len).collect()
    };
    assert_eq!(lens(2..5), BTreeSet::from([2, 3, 4]));
    let inclusive: BTreeSet<usize> =
        draws(prop::collection::vec(any::<u8>(), 0..=2), 400).iter().map(Vec::len).collect();
    assert_eq!(inclusive, BTreeSet::from([0, 1, 2]));
    assert!(draws(prop::collection::vec(any::<u8>(), 6), 50).iter().all(|v| v.len() == 6));
}

#[test]
fn select_draws_every_option_and_nothing_else() {
    let seen: BTreeSet<&str> =
        draws(prop::sample::select(vec!["gcc", "mesa", "art"]), 300).into_iter().collect();
    assert_eq!(seen, BTreeSet::from(["art", "gcc", "mesa"]));
}

#[test]
fn maps_tuples_and_just_compose() {
    let pairs = draws((0u8..4, Just("fixed")).prop_map(|(n, s)| (u32::from(n) * 10, s)), 200);
    assert!(pairs.iter().all(|&(n, s)| n % 10 == 0 && n < 40 && s == "fixed"));
    let firsts: BTreeSet<u32> = pairs.iter().map(|&(n, _)| n).collect();
    assert_eq!(firsts, BTreeSet::from([0, 10, 20, 30]));
}

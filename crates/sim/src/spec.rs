//! The spec table: every settable [`SystemSpec`] field, declared once.
//!
//! A [`Field`] row gives the field's key (the serve JSON key and the
//! journal's text key), CLI flag and short alias, help text and typed
//! access. Every front end reads and writes specs through [`FIELDS`]:
//! `bitline-sim` flags and `--help` ([`Assignments`], [`help`]),
//! `bitline-serve` requests ([`from_json`]) and the checkpoint journal
//! ([`canonical_text`], [`parse_text`]). Values apply in table order
//! whatever the input order, so `d_policy`, which also sets `i_policy`,
//! never overrides an explicit `i_policy`. Rows check single values
//! (finite floats, a nonzero scrub period, integer width); rules across
//! fields stay in [`SystemSpec::validate`].
//!
//! A new spec axis is one row here, one tagged block in the
//! [`spec_key`](crate::checkpoint::spec_key) encoding, and its rule in
//! [`SystemSpec::validate`].

use std::fmt::{Display, Write as _};
use std::num::NonZeroU64;
use std::str::FromStr;

use bitline_energy::LeakageKind;
use bitline_obs::json::Json;

use crate::config::{PolicyKind, SystemSpec};

const FIELD_COUNT: usize = 16;

/// One settable field of [`SystemSpec`].
pub struct Field {
    /// Serve JSON key and journal text key.
    pub key: &'static str,
    /// Long CLI flag.
    pub flag: &'static str,
    /// Short CLI alias.
    pub short: Option<&'static str>,
    /// The flag's value placeholder in `--help`; empty for a switch.
    value: &'static str,
    /// `--help` text; each line break starts a continuation line.
    help: &'static str,
    access: &'static (dyn Access + Sync),
}

/// Every settable field, in the order values apply.
#[rustfmt::skip]
pub static FIELDS: [Field; FIELD_COUNT] = [
    Field { key: "d_policy", flag: "--policy", short: Some("-p"), value: "P",
        help: "D-cache policy (default gated-predecode:100): static | oracle |\n\
               ondemand | gated:T | gated-predecode:T | adaptive:INTERVAL |\n\
               drowsy:T | resizable:INTERVAL:SLACK | recorder; also sets the\n\
               I-cache policy (predecode falls back to gated)",
        access: &Accessor::<PolicyKind>(|s| Some(s.d_policy), |s, p| {
            s.d_policy = p;
            s.i_policy = p.icache_default();
        }) },
    Field { key: "i_policy", flag: "--icache-policy", short: None, value: "P",
        help: "I-cache policy (default: follows --policy)",
        access: &Accessor::<PolicyKind>(|s| Some(s.i_policy), |s, p| s.i_policy = p) },
    Field { key: "subarray_bytes", flag: "--subarray", short: None, value: "BYTES",
        help: "subarray size of both L1s, a power of two from 32 to 32768\n(default 1024)",
        access: &Accessor::<usize>(|s| Some(s.subarray_bytes), |s, n| s.subarray_bytes = n) },
    Field { key: "instructions", flag: "--instructions", short: Some("-i"), value: "N",
        help: "instructions to simulate (default 150000)",
        access: &Accessor::<u64>(|s| Some(s.instructions), |s, n| s.instructions = n) },
    Field { key: "seed", flag: "--seed", short: None, value: "S",
        help: "workload seed (default 42)",
        access: &Accessor::<u64>(|s| Some(s.seed), |s, n| s.seed = n) },
    Field { key: "way_prediction", flag: "--way-prediction", short: None, value: "",
        help: "enable MRU way prediction on both L1s",
        access: &Accessor::<bool>(|s| Some(s.way_prediction), |s, b| s.way_prediction = b) },
    Field { key: "fault_rate", flag: "--fault-rate", short: None, value: "P",
        help: "per-cold-access upset probability (default 0 = off)",
        access: &Accessor::<f64>(|s| Some(s.faults.rate), |s, x| s.faults.rate = x) },
    Field { key: "fault_seed", flag: "--fault-seed", short: None, value: "S",
        help: "fault-injector seed (default: fixed constant)",
        access: &Accessor::<u64>(|s| Some(s.faults.seed), |s, n| s.faults.seed = n) },
    Field { key: "fail_safe", flag: "--fail-safe", short: None, value: "",
        help: "pin upset-prone subarrays back to static pull-up",
        access: &Accessor::<bool>(|s| Some(s.faults.fail_safe), |s, b| s.faults.fail_safe = b) },
    Field { key: "ecc", flag: "--ecc", short: None, value: "",
        help: "protect words with (72,64) SECDED: singles correct in place,\n\
               doubles replay as DUEs",
        access: &Accessor::<bool>(|s| Some(s.faults.ecc), |s, b| s.faults.ecc = b) },
    // Unset is written by omission; a set period is at least one cycle.
    Field { key: "scrub_period", flag: "--scrub-period", short: None, value: "N",
        help: "background-scrub sweep period in cycles (requires --ecc;\ndefault off)",
        access: &Accessor::<NonZeroU64>(
            |s| s.faults.scrub_period.and_then(NonZeroU64::new),
            |s, p| s.faults.scrub_period = Some(p.get())) },
    Field { key: "levels", flag: "--levels", short: None, value: "N",
        help: "cache levels: 1 = L1s only (default), 2 adds a managed L2,\n\
               3 adds an L3 behind it",
        access: &Accessor::<u8>(|s| Some(s.hierarchy.levels), |s, n| s.hierarchy.levels = n) },
    Field { key: "l2_policy", flag: "--l2-policy", short: None, value: "P",
        help: "outer-level precharge policy (default static; same grammar\n\
               as --policy, needs --levels 2 or 3)",
        access: &Accessor::<PolicyKind>(|s| Some(s.hierarchy.l2_policy),
            |s, p| s.hierarchy.l2_policy = p) },
    Field { key: "leakage_mode", flag: "--leakage-mode", short: None, value: "M",
        help: "cell-array leakage control: full-vdd (default) | drowsy |\n\
               gated-vdd | 6t (pricing only, never cycles)",
        access: &Accessor::<LeakageKind>(|s| Some(s.hierarchy.leakage_mode),
            |s, m| s.hierarchy.leakage_mode = m) },
    Field { key: "vdd", flag: "--vdd", short: None, value: "S",
        help: "L1 supply as a fraction of nominal, 0.6 to 1.1 (default 1.0;\n\
               below the sense guardband cold reads speculate and mis-senses\n\
               replay)",
        access: &Accessor::<f64>(|s| Some(s.vdd.scale), |s, x| s.vdd.scale = x) },
    Field { key: "vdd_governor", flag: "--vdd-governor", short: None, value: "",
        help: "per-subarray guardband ladder: escalate toward nominal on\n\
               replay storms, relax when clean, pin after repeated escalation",
        access: &Accessor::<bool>(|s| Some(s.vdd.governor), |s, b| s.vdd.governor = b) },
];

/// The JSON type serve accepts for a field.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JsonType {
    String,
    Unsigned,
    Number,
    Boolean,
}

impl JsonType {
    /// `json` as the text its row parses, when it has this type.
    fn text(self, json: &Json) -> Result<String, String> {
        match (self, json) {
            (JsonType::String, Json::Str(s)) => Ok(s.clone()),
            (JsonType::Unsigned | JsonType::Number, Json::Int(n)) => Ok(n.to_string()),
            (JsonType::Number, Json::Float(x)) => Ok(x.to_string()),
            (JsonType::Boolean, Json::Bool(b)) => Ok(b.to_string()),
            (JsonType::String, _) => Err("expected a string".to_owned()),
            (JsonType::Unsigned, _) => Err("expected an unsigned integer".to_owned()),
            (JsonType::Number, _) => Err("expected a number".to_owned()),
            (JsonType::Boolean, _) => Err("expected a boolean".to_owned()),
        }
    }
}

/// A type a field can hold: its text form is its `FromStr`/`Display`
/// pair (shortest-roundtrip for floats, so text parses back bit for bit).
trait Value: FromStr<Err: Display> + Display {
    const JSON: JsonType;
    /// Rejects values the type admits but a spec must not hold.
    fn check(self) -> Result<Self, String> {
        Ok(self)
    }
}

impl Value for PolicyKind {
    const JSON: JsonType = JsonType::String;
}

impl Value for LeakageKind {
    const JSON: JsonType = JsonType::String;
}

impl Value for u64 {
    const JSON: JsonType = JsonType::Unsigned;
}

impl Value for usize {
    const JSON: JsonType = JsonType::Unsigned;
}

impl Value for u8 {
    const JSON: JsonType = JsonType::Unsigned;
}

impl Value for NonZeroU64 {
    const JSON: JsonType = JsonType::Unsigned;
}

impl Value for bool {
    const JSON: JsonType = JsonType::Boolean;
}

impl Value for f64 {
    const JSON: JsonType = JsonType::Number;
    /// NaN and ±inf would ride along until they poison a probability draw
    /// or an energy total.
    fn check(self) -> Result<Self, String> {
        if self.is_finite() {
            Ok(self)
        } else {
            Err(format!("must be finite, got {self}"))
        }
    }
}

/// A row's typed access, erased so rows of different types share a table.
trait Access {
    fn json(&self) -> JsonType;
    fn set(&self, spec: &mut SystemSpec, text: &str) -> Result<(), String>;
    /// The field's text form; `None` for an unset optional.
    fn text(&self, spec: &SystemSpec) -> Option<String>;
}

/// Getter and setter of one field.
struct Accessor<T>(fn(&SystemSpec) -> Option<T>, fn(&mut SystemSpec, T));

impl<T: Value> Access for Accessor<T> {
    fn json(&self) -> JsonType {
        T::JSON
    }
    fn set(&self, spec: &mut SystemSpec, text: &str) -> Result<(), String> {
        let value = text.parse::<T>().map_err(|e| format!("`{text}`: {e}"))?;
        (self.1)(spec, value.check()?);
        Ok(())
    }
    fn text(&self, spec: &SystemSpec) -> Option<String> {
        (self.0)(spec).map(|v| v.to_string())
    }
}

/// The spec both front ends start from: gated precharging with predecode
/// hints on the D-cache (plain gating on the I-cache, which has no base
/// register to predecode from), and [`SystemSpec::default`] otherwise.
#[must_use]
pub fn front_end_default() -> SystemSpec {
    let d_policy = PolicyKind::GatedPredecode { threshold: 100 };
    SystemSpec { d_policy, i_policy: d_policy.icache_default(), ..SystemSpec::default() }
}

/// Field values in text form, from command-line flags or the journal,
/// applied in table order. A later value for a field replaces an earlier
/// one.
#[derive(Default)]
pub struct Assignments([Option<String>; FIELD_COUNT]);

impl Assignments {
    /// Records `flag` when it names a field, taking its value from `value`
    /// unless the field is a switch. Returns whether `flag` was a spec flag.
    ///
    /// # Errors
    ///
    /// Whatever `value` returns when the flag's value is missing.
    pub fn flag(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<String, String>,
    ) -> Result<bool, String> {
        let Some(i) = FIELDS.iter().position(|f| f.flag == flag || f.short == Some(flag)) else {
            return Ok(false);
        };
        let switch = FIELDS[i].access.json() == JsonType::Boolean;
        self.0[i] = Some(if switch { "true".to_owned() } else { value()? });
        Ok(true)
    }

    /// The fields given a value, in table order.
    pub fn fields(&self) -> impl Iterator<Item = &'static Field> + '_ {
        FIELDS.iter().zip(&self.0).filter_map(|(f, v)| v.as_ref().map(|_| f))
    }

    /// Applies the values over `spec`, in table order.
    ///
    /// # Errors
    ///
    /// The first value a row rejects, as `FLAG: message`.
    pub fn apply(&self, spec: SystemSpec) -> Result<SystemSpec, String> {
        self.apply_named(spec, |f| f.flag)
    }

    /// [`apply`](Self::apply), naming a rejected value's field by `name`.
    fn apply_named(
        &self,
        mut spec: SystemSpec,
        name: fn(&Field) -> &'static str,
    ) -> Result<SystemSpec, String> {
        for (field, text) in FIELDS.iter().zip(&self.0) {
            if let Some(text) = text {
                field.access.set(&mut spec, text).map_err(|e| format!("{}: {e}", name(field)))?;
            }
        }
        Ok(spec)
    }
}

/// A spec as text: `key=value` for every field in table order,
/// space-separated; an unset scrub period is left out.
#[must_use]
pub fn canonical_text(spec: &SystemSpec) -> String {
    let pairs = FIELDS.iter().filter_map(|f| Some(format!("{}={}", f.key, f.access.text(spec)?)));
    pairs.collect::<Vec<_>>().join(" ")
}

/// Reads [`canonical_text`] back over [`SystemSpec::default`] through the
/// rows' own parsers. `None` on a malformed pair, an unknown key, or a
/// value its row rejects.
#[must_use]
pub fn parse_text(text: &str) -> Option<SystemSpec> {
    let mut values = Assignments::default();
    for pair in text.split(' ') {
        let (key, value) = pair.split_once('=')?;
        values.0[FIELDS.iter().position(|f| f.key == key)?] = Some(value.to_owned());
    }
    values.apply(SystemSpec::default()).ok()
}

/// Builds a spec from a serve request's `spec` object over `spec`. Every
/// key must name a field and every value must have its field's JSON type;
/// values apply in table order, and the first of a repeated key wins.
///
/// # Errors
///
/// A message naming the unexpected key or the key whose value is rejected.
pub fn from_json(spec: SystemSpec, obj: &[(String, Json)]) -> Result<SystemSpec, String> {
    let mut values = Assignments::default();
    for (key, json) in obj {
        let Some(i) = FIELDS.iter().position(|f| f.key == key) else {
            return Err(format!("spec: unexpected key `{key}`"));
        };
        if values.0[i].is_none() {
            values.0[i] =
                Some(FIELDS[i].access.json().text(json).map_err(|e| format!("spec {key}: {e}"))?);
        }
    }
    values.apply_named(spec, |f| f.key).map_err(|e| format!("spec {e}"))
}

/// The `--help` lines of every spec flag, in table order.
#[must_use]
pub fn help() -> String {
    let mut out = String::new();
    for field in &FIELDS {
        let short = field.short.map_or_else(|| "    ".to_owned(), |s| format!("{s}, "));
        let names = format!("{short}{} {}", field.flag, field.value);
        for (i, line) in field.help.lines().enumerate() {
            let _ = writeln!(out, "  {:<22}  {line}", if i == 0 { names.trim_end() } else { "" });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::config::tests::any_policy;
    use crate::config::{FaultSpec, HierarchySpec, VddSpec};

    fn set(flags: &[(&str, &str)]) -> Assignments {
        let mut values = Assignments::default();
        for (flag, value) in flags {
            assert!(values.flag(flag, || Ok((*value).to_owned())).unwrap(), "{flag}");
        }
        values
    }

    #[test]
    fn every_default_survives_format_then_parse() {
        for base in [SystemSpec::default(), front_end_default()] {
            for field in &FIELDS {
                let mut spec = base;
                if let Some(text) = field.access.text(&base) {
                    field.access.set(&mut spec, &text).unwrap();
                }
                assert_eq!(spec, base, "{}", field.key);
            }
            assert_eq!(parse_text(&canonical_text(&base)), Some(base));
        }
    }

    #[test]
    fn flags_apply_in_table_order_and_record_what_was_set() {
        let build = |flags: &[(&str, &str)]| set(flags).apply(front_end_default()).unwrap();
        let icache_first = build(&[("--icache-policy", "static"), ("--policy", "oracle")]);
        assert_eq!(icache_first, build(&[("--policy", "oracle"), ("--icache-policy", "static")]));
        assert_eq!(icache_first.i_policy, PolicyKind::StaticPullUp);
        assert_eq!(build(&[("-p", "predecode:32")]).i_policy, PolicyKind::Gated { threshold: 32 });
        // Switches take no value; a later value replaces an earlier one.
        let spec = build(&[("--ecc", ""), ("-i", "10"), ("--instructions", "20")]);
        assert!(spec.faults.ecc);
        assert_eq!(spec.instructions, 20);

        let values = set(&[("--vdd", "nan"), ("--fault-seed", "7")]);
        let keys: Vec<_> = values.fields().map(|f| f.key).collect();
        assert_eq!(keys, ["fault_seed", "vdd"]);
        let error = values.apply(front_end_default()).unwrap_err();
        assert!(error.starts_with("--vdd: ") && error.contains("finite"), "{error}");
        assert!(!Assignments::default().flag("--node", || unreachable!()).unwrap());
        assert!(help().contains("-p, --policy P"));
    }

    #[test]
    fn text_with_a_bad_pair_or_value_is_rejected() {
        for bad in [
            "",
            "seed",
            "bogus=1",
            "seed=-1",
            "levels=256",
            "scrub_period=0",
            "vdd=NaN",
            "fault_rate=inf",
            "ecc=1",
            "leakage_mode=antigravity",
        ] {
            assert_eq!(parse_text(bad), None, "`{bad}`");
        }
    }

    /// A policy other than `p`, its parameters off every default.
    fn another_policy(p: PolicyKind) -> PolicyKind {
        match p {
            PolicyKind::Resizable { .. } => PolicyKind::Drowsy { threshold: 33 },
            _ => PolicyKind::Resizable { interval_accesses: 777, slack: -0.0125 },
        }
    }

    /// Each field, set off its default alone, round-trips through the text
    /// and moves only its own pair. The destructuring names every field
    /// without `..`, so a field added to `SystemSpec` or a sub-spec stops
    /// this compiling until it is set here under its `FIELDS` key.
    #[test]
    fn every_field_round_trips_through_the_text() {
        let base = SystemSpec::default();
        let SystemSpec {
            d_policy,
            i_policy,
            subarray_bytes,
            instructions,
            seed,
            way_prediction,
            faults,
            hierarchy,
            vdd,
        } = base;
        let FaultSpec { rate, seed: fault_seed, fail_safe, ecc, scrub_period } = faults;
        let HierarchySpec { levels, l2_policy, leakage_mode } = hierarchy;
        let VddSpec { scale, governor } = vdd;
        let other_mode = LeakageKind::ALL.iter().copied().find(|&m| m != leakage_mode).unwrap();
        let faulted = |faults| SystemSpec { faults, ..base };
        let layered = |hierarchy| SystemSpec { hierarchy, ..base };
        let supplied = |vdd| SystemSpec { vdd, ..base };
        let set = [
            ("d_policy", SystemSpec { d_policy: another_policy(d_policy), ..base }),
            ("i_policy", SystemSpec { i_policy: another_policy(i_policy), ..base }),
            ("subarray_bytes", SystemSpec { subarray_bytes: subarray_bytes * 2, ..base }),
            ("instructions", SystemSpec { instructions: instructions + 1, ..base }),
            ("seed", SystemSpec { seed: seed + 1, ..base }),
            ("way_prediction", SystemSpec { way_prediction: !way_prediction, ..base }),
            ("fault_rate", faulted(FaultSpec { rate: rate + 0.015_625, ..faults })),
            ("fault_seed", faulted(FaultSpec { seed: fault_seed + 1, ..faults })),
            ("fail_safe", faulted(FaultSpec { fail_safe: !fail_safe, ..faults })),
            ("ecc", faulted(FaultSpec { ecc: !ecc, ..faults })),
            (
                "scrub_period",
                faulted(FaultSpec {
                    scrub_period: Some(scrub_period.map_or(4_096, |p| p + 1)),
                    ..faults
                }),
            ),
            ("levels", layered(HierarchySpec { levels: levels + 2, ..hierarchy })),
            (
                "l2_policy",
                layered(HierarchySpec { l2_policy: another_policy(l2_policy), ..hierarchy }),
            ),
            ("leakage_mode", layered(HierarchySpec { leakage_mode: other_mode, ..hierarchy })),
            ("vdd", supplied(VddSpec { scale: scale - 0.125, ..vdd })),
            ("vdd_governor", supplied(VddSpec { governor: !governor, ..vdd })),
        ];
        let keys: Vec<&str> = set.iter().map(|(key, _)| *key).collect();
        let rows: Vec<&str> = FIELDS.iter().map(|f| f.key).collect();
        assert_eq!(keys, rows, "one setting per row, in table order");
        let base_text = canonical_text(&base);
        for (key, spec) in set {
            let text = canonical_text(&spec);
            let moved: Vec<&str> =
                text.split(' ').filter(|pair| !base_text.split(' ').any(|b| b == *pair)).collect();
            let own = format!("{key}=");
            assert!(
                !moved.is_empty() && moved.iter().all(|p| p.starts_with(&own)),
                "{key}: {moved:?}"
            );
            let back = parse_text(&text);
            assert_eq!(format!("{back:?}"), format!("{:?}", Some(spec)), "{key}");
        }
    }

    /// A float at either end of `[lo, hi]`, inside it, or any bit pattern
    /// at all (signed zeros, subnormals, NaN and the infinities included).
    fn float_in(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
        (0u8..5, lo..hi, any::<u64>()).prop_map(move |(pick, x, bits)| match pick {
            0 => lo,
            1 => hi,
            2 | 3 => x,
            _ => f64::from_bits(bits),
        })
    }

    /// Specs over every field, most of which `validate` admits.
    fn any_spec() -> impl Strategy<Value = SystemSpec> {
        (
            (any_policy(), any_policy(), any_policy()),
            (5u32..16, any::<u64>(), any::<u64>(), any::<bool>()),
            (float_in(-0.0, 1.0), any::<u64>(), any::<bool>(), any::<bool>(), any::<u64>()),
            (1u8..4, 0usize..LeakageKind::ALL.len()),
            (float_in(0.6, 1.1), any::<bool>(), any::<bool>()),
        )
            .prop_map(
                |(policies, (shift, instructions, seed, way_prediction), f, h, v)| {
                    let (d_policy, i_policy, l2_policy) = policies;
                    let (rate, fault_seed, fail_safe, ecc, period) = f;
                    let (levels, mode) = h;
                    let (scale, nominal, governor) = v;
                    let scrub_period = (ecc && period % 2 == 0).then_some(period / 2);
                    let l2_policy = if levels == 1 { PolicyKind::StaticPullUp } else { l2_policy };
                    SystemSpec {
                        d_policy,
                        i_policy,
                        subarray_bytes: 1 << shift,
                        instructions,
                        seed,
                        way_prediction,
                        faults: FaultSpec { rate, seed: fault_seed, fail_safe, ecc, scrub_period },
                        hierarchy: HierarchySpec {
                            levels,
                            l2_policy,
                            leakage_mode: LeakageKind::ALL[mode],
                        },
                        vdd: VddSpec { scale: if nominal { 1.0 } else { scale }, governor },
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Every spec `validate` admits reads back from its text bit for
        /// bit, so the text names the spec alone and can key the run cache.
        #[test]
        fn every_valid_spec_reads_back_from_its_text(spec in any_spec()) {
            if spec.validate().is_ok() {
                let back = parse_text(&canonical_text(&spec));
                prop_assert_eq!(format!("{back:?}"), format!("{:?}", Some(spec)));
            }
        }
    }
}

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
//! The rows also write the run's [`spec_key`](crate::checkpoint::spec_key):
//! each value type lays out its own key words, and a row may open a key
//! block, written only when one of its fields is off its default. A new
//! spec axis is two steps: its rows here, the first opening a block with a
//! fresh tag so that no existing key moves, and its rule in
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
    /// Whether the row opens a key block, and the tag the block leads
    /// with: the rows from it to the next that opens one write their key
    /// words into it.
    opens: Option<&'static [u8]>,
    /// `--help` text; each line break starts a continuation line.
    help: &'static str,
    access: &'static (dyn Access + Sync),
}

/// Every settable field, in the order values apply.
#[rustfmt::skip]
pub static FIELDS: [Field; FIELD_COUNT] = [
    Field { key: "d_policy", flag: "--policy", short: Some("-p"), value: "P", opens: None,
        help: "D-cache policy (default gated-predecode:100): static | oracle |\n\
               ondemand | gated:T | gated-predecode:T | adaptive:INTERVAL |\n\
               drowsy:T | resizable:INTERVAL:SLACK | recorder; also sets the\n\
               I-cache policy (predecode falls back to gated)",
        access: &Accessor::<PolicyKind>(|s| Some(s.d_policy), |s, p| {
            s.d_policy = p;
            s.i_policy = p.icache_default();
        }) },
    Field { key: "i_policy", flag: "--icache-policy", short: None, value: "P", opens: None,
        help: "I-cache policy (default: follows --policy)",
        access: &Accessor::<PolicyKind>(|s| Some(s.i_policy), |s, p| s.i_policy = p) },
    Field { key: "subarray_bytes", flag: "--subarray", short: None, value: "BYTES", opens: None,
        help: "subarray size of both L1s, a power of two from 32 to 32768\n(default 1024)",
        access: &Accessor::<usize>(|s| Some(s.subarray_bytes), |s, n| s.subarray_bytes = n) },
    Field { key: "instructions", flag: "--instructions", short: Some("-i"), value: "N", opens: None,
        help: "instructions to simulate (default 150000)",
        access: &Accessor::<u64>(|s| Some(s.instructions), |s, n| s.instructions = n) },
    Field { key: "seed", flag: "--seed", short: None, value: "S", opens: None,
        help: "workload seed (default 42)",
        access: &Accessor::<u64>(|s| Some(s.seed), |s, n| s.seed = n) },
    Field { key: "way_prediction", flag: "--way-prediction", short: None, value: "", opens: None,
        help: "enable MRU way prediction on both L1s",
        access: &Accessor::<bool>(|s| Some(s.way_prediction), |s, b| s.way_prediction = b) },
    Field { key: "fault_rate", flag: "--fault-rate", short: None, value: "P", opens: None,
        help: "per-cold-access upset probability (default 0 = off)",
        access: &Accessor::<f64>(|s| Some(s.faults.rate), |s, x| s.faults.rate = x) },
    Field { key: "fault_seed", flag: "--fault-seed", short: None, value: "S", opens: None,
        help: "fault-injector seed (default: fixed constant)",
        access: &Accessor::<u64>(|s| Some(s.faults.seed), |s, n| s.faults.seed = n) },
    Field { key: "fail_safe", flag: "--fail-safe", short: None, value: "", opens: None,
        help: "pin upset-prone subarrays back to static pull-up",
        access: &Accessor::<bool>(|s| Some(s.faults.fail_safe), |s, b| s.faults.fail_safe = b) },
    Field { key: "ecc", flag: "--ecc", short: None, value: "", opens: None,
        help: "protect words with (72,64) SECDED: singles correct in place,\n\
               doubles replay as DUEs",
        access: &Accessor::<bool>(|s| Some(s.faults.ecc), |s, b| s.faults.ecc = b) },
    // Unset is written by omission; a set period is at least one cycle.
    Field { key: "scrub_period", flag: "--scrub-period", short: None, value: "N", opens: None,
        help: "background-scrub sweep period in cycles (requires --ecc;\ndefault off)",
        access: &Accessor::<NonZeroU64>(
            |s| s.faults.scrub_period.and_then(NonZeroU64::new),
            |s, p| s.faults.scrub_period = Some(p.get())) },
    // Each later axis keys a block of its own; the hierarchy's predates tags.
    Field { key: "levels", flag: "--levels", short: None, value: "N", opens: Some(&[]),
        help: "cache levels: 1 = L1s only (default), 2 adds a managed L2,\n\
               3 adds an L3 behind it",
        access: &Accessor::<u8>(|s| Some(s.hierarchy.levels), |s, n| s.hierarchy.levels = n) },
    Field { key: "l2_policy", flag: "--l2-policy", short: None, value: "P", opens: None,
        help: "outer-level precharge policy (default static; same grammar\n\
               as --policy, needs --levels 2 or 3)",
        access: &Accessor::<PolicyKind>(|s| Some(s.hierarchy.l2_policy),
            |s, p| s.hierarchy.l2_policy = p) },
    Field { key: "leakage_mode", flag: "--leakage-mode", short: None, value: "M", opens: None,
        help: "cell-array leakage control: full-vdd (default) | drowsy |\n\
               gated-vdd | 6t (pricing only, never cycles)",
        access: &Accessor::<LeakageKind>(|s| Some(s.hierarchy.leakage_mode),
            |s, m| s.hierarchy.leakage_mode = m) },
    Field { key: "vdd", flag: "--vdd", short: None, value: "S", opens: Some(&[0xD1]),
        help: "L1 supply as a fraction of nominal, 0.6 to 1.1 (default 1.0;\n\
               below the sense guardband cold reads speculate and mis-senses\n\
               replay)",
        access: &Accessor::<f64>(|s| Some(s.vdd.scale), |s, x| s.vdd.scale = x) },
    Field { key: "vdd_governor", flag: "--vdd-governor", short: None, value: "", opens: None,
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
    /// Appends the value's key words, laid out as the key has always been:
    /// a byte for a `u8`, a flag or a tag, 8 little-endian bytes for an
    /// integer or a float's bits.
    fn key(&self, out: &mut Vec<u8>);
}

impl Value for PolicyKind {
    const JSON: JsonType = JsonType::String;
    /// Its tag, then its parameters. Tag 6 named leakage-biased bitlines, a
    /// copy of the oracle; it stays unused so no other policy's key can
    /// collide with an old one.
    fn key(&self, out: &mut Vec<u8>) {
        let (tag, param, slack) = match *self {
            PolicyKind::StaticPullUp => (0, None, None),
            PolicyKind::Oracle => (1, None, None),
            PolicyKind::OnDemand => (2, None, None),
            PolicyKind::Gated { threshold } => (3, Some(threshold), None),
            PolicyKind::GatedPredecode { threshold } => (4, Some(threshold), None),
            PolicyKind::AdaptiveGated { interval_accesses } => (5, Some(interval_accesses), None),
            PolicyKind::Drowsy { threshold } => (7, Some(threshold), None),
            PolicyKind::Resizable { interval_accesses, slack } => {
                (8, Some(interval_accesses), Some(slack))
            }
            PolicyKind::LocalityRecorder => (9, None, None),
        };
        out.push(tag);
        if let Some(param) = param {
            param.key(out);
        }
        if let Some(slack) = slack {
            slack.key(out);
        }
    }
}

impl Value for LeakageKind {
    const JSON: JsonType = JsonType::String;
    fn key(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Value for u64 {
    const JSON: JsonType = JsonType::Unsigned;
    fn key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Value for usize {
    const JSON: JsonType = JsonType::Unsigned;
    fn key(&self, out: &mut Vec<u8>) {
        (*self as u64).key(out);
    }
}

impl Value for u8 {
    const JSON: JsonType = JsonType::Unsigned;
    fn key(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Value for NonZeroU64 {
    const JSON: JsonType = JsonType::Unsigned;
    /// A presence byte, then the value: an unset one writes the byte 0
    /// alone ([`Access::key`]).
    fn key(&self, out: &mut Vec<u8>) {
        out.push(1);
        self.get().key(out);
    }
}

impl Value for bool {
    const JSON: JsonType = JsonType::Boolean;
    fn key(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
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
    fn key(&self, out: &mut Vec<u8>) {
        self.to_bits().key(out);
    }
}

/// A row's typed access, erased so rows of different types share a table.
trait Access {
    fn json(&self) -> JsonType;
    fn set(&self, spec: &mut SystemSpec, text: &str) -> Result<(), String>;
    /// The field's text form; `None` for an unset optional.
    fn text(&self, spec: &SystemSpec) -> Option<String>;
    /// Appends the field's key words ([`Value::key`]); an unset optional
    /// writes the byte 0.
    fn key(&self, spec: &SystemSpec, out: &mut Vec<u8>);
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
    fn key(&self, spec: &SystemSpec, out: &mut Vec<u8>) {
        match (self.0)(spec) {
            Some(value) => value.key(out),
            None => out.push(0),
        }
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

/// The words [`spec_key`](crate::checkpoint::spec_key) hashes: every
/// row's key words in table order, in the blocks the rows open. The first
/// block is always written; a later one, led by its tag, only when its
/// words differ from [`SystemSpec::default`]'s, so a new axis moves no
/// existing key.
pub(crate) fn key_words(spec: &SystemSpec) -> Vec<u8> {
    let default = SystemSpec::default();
    let mut out = Vec::new();
    for (i, block) in FIELDS.chunk_by(|_, row| row.opens.is_none()).enumerate() {
        let words = |spec: &SystemSpec| {
            let mut words = block[0].opens.unwrap_or_default().to_vec();
            for row in block {
                row.access.key(spec, &mut words);
            }
            words
        };
        let own = words(spec);
        if i == 0 || own != words(&default) {
            out.extend(own);
        }
    }
    out
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

    /// A key word as `checkpoint.rs` wrote it by hand before the table
    /// wrote the key: a byte for a `u8` or a flag, 8 little-endian bytes for
    /// an integer or a float's bits, a presence byte before an option's
    /// value.
    trait KeyWord {
        fn word(&self, out: &mut Vec<u8>);
    }

    impl KeyWord for u8 {
        fn word(&self, out: &mut Vec<u8>) {
            out.push(*self);
        }
    }

    impl KeyWord for bool {
        fn word(&self, out: &mut Vec<u8>) {
            u8::from(*self).word(out);
        }
    }

    impl KeyWord for u64 {
        fn word(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }
    }

    impl KeyWord for f64 {
        fn word(&self, out: &mut Vec<u8>) {
            self.to_bits().word(out);
        }
    }

    impl<T: KeyWord> KeyWord for Option<T> {
        fn word(&self, out: &mut Vec<u8>) {
            self.is_some().word(out);
            if let Some(v) = self {
                v.word(out);
            }
        }
    }

    /// A policy's reference key words: its tag, then its parameters.
    fn reference_policy(out: &mut Vec<u8>, p: PolicyKind) {
        match p {
            PolicyKind::StaticPullUp => 0_u8.word(out),
            PolicyKind::Oracle => 1_u8.word(out),
            PolicyKind::OnDemand => 2_u8.word(out),
            PolicyKind::Gated { threshold } => {
                3_u8.word(out);
                threshold.word(out);
            }
            PolicyKind::GatedPredecode { threshold } => {
                4_u8.word(out);
                threshold.word(out);
            }
            PolicyKind::AdaptiveGated { interval_accesses } => {
                5_u8.word(out);
                interval_accesses.word(out);
            }
            PolicyKind::Drowsy { threshold } => {
                7_u8.word(out);
                threshold.word(out);
            }
            PolicyKind::Resizable { interval_accesses, slack } => {
                8_u8.word(out);
                interval_accesses.word(out);
                slack.word(out);
            }
            PolicyKind::LocalityRecorder => 9_u8.word(out),
        }
    }

    /// The key words as the hand-kept encoder laid them out: the original
    /// fields in a fixed layout, then the hierarchy block when the
    /// hierarchy is not the default, then the supply block, led by `0xD1`,
    /// when the supply is not nominal.
    fn reference_key_words(s: &SystemSpec) -> Vec<u8> {
        let mut out = Vec::new();
        reference_policy(&mut out, s.d_policy);
        reference_policy(&mut out, s.i_policy);
        (s.subarray_bytes as u64).word(&mut out);
        s.instructions.word(&mut out);
        s.seed.word(&mut out);
        s.way_prediction.word(&mut out);
        s.faults.rate.word(&mut out);
        s.faults.seed.word(&mut out);
        s.faults.fail_safe.word(&mut out);
        s.faults.ecc.word(&mut out);
        s.faults.scrub_period.word(&mut out);
        if s.hierarchy != HierarchySpec::default() {
            let h = &s.hierarchy;
            h.levels.word(&mut out);
            reference_policy(&mut out, h.l2_policy);
            let mode: u8 = match h.leakage_mode {
                LeakageKind::FullVdd => 0,
                LeakageKind::Drowsy => 1,
                LeakageKind::GatedVdd => 2,
                LeakageKind::LowPower6T => 3,
            };
            mode.word(&mut out);
        }
        if !s.vdd.is_default() {
            0xD1_u8.word(&mut out);
            s.vdd.scale.word(&mut out);
            s.vdd.governor.word(&mut out);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The table writes the key the hand-kept encoder wrote, word for
        /// word. Only a zero scrub period, which writes as an unset one,
        /// can differ, and `validate` refuses it before any key is
        /// computed.
        #[test]
        fn the_table_writes_the_reference_key_words(spec in any_spec()) {
            if spec.faults.scrub_period != Some(0) {
                prop_assert_eq!(key_words(&spec), reference_key_words(&spec));
            }
        }

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

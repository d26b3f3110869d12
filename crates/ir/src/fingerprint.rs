//! Stable structural fingerprints of transition systems.
//!
//! The serve-mode solve cache needs a key that identifies a program by *what it
//! is*, not what it is called: two submissions of the same loop under different
//! display names must collide, and a one-line edit must change exactly the
//! fingerprints of the locations it touches. The cache therefore hashes a
//! [canonical rendering](canonical_form), and [`location_fingerprints`] hashes each
//! location's share of it. The rendering
//!
//! * excludes the system's human-readable name and its location display names
//!   (locations appear as `l{index}`),
//! * includes variable *names* in interning order — the differential analysis pairs
//!   old and new program variables by name, so renaming a variable genuinely changes
//!   the analysis and must change the fingerprint,
//! * renders guards, updates and Θ0 through the deterministic
//!   [`LinExpr`](dca_poly::LinExpr)/[`Polynomial`](dca_poly::Polynomial) printers
//!   (update maps are `BTreeMap`s, so iteration order is already canonical).
//!
//! The hash is 64-bit FNV-1a — collisions are unlikely but possible, so cache
//! consumers store the canonical string alongside each entry and compare it on hit;
//! the fingerprint is the shard key, the string is the proof of identity.

use std::fmt::Write as _;

use crate::system::{TransitionSystem, Update};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues a 64-bit FNV-1a hash with more bytes (for folding several renderings
/// into one fingerprint without concatenating strings).
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Per-location sub-fingerprints, indexed by [`LocId`](crate::LocId) index: each
/// covers the location's initial/terminal role, Θ0 (initial location only), and its
/// outgoing transitions. A location whose sub-fingerprint is unchanged between two
/// systems contributes identical constraints to the encoding, so an edited program
/// can be diffed against its ancestor location-by-location.
pub fn location_fingerprints(ts: &TransitionSystem) -> Vec<u64> {
    ts.locations()
        .into_iter()
        .map(|loc| fnv1a(location_form(ts, loc).as_bytes()))
        .collect()
}

/// The canonical, name-independent rendering the fingerprint hashes. Stable across
/// process runs (no addresses, no hash-map iteration order) and total: every field
/// of the system except its display names is included.
pub fn canonical_form(ts: &TransitionSystem) -> String {
    let mut out = String::new();
    let pool = ts.pool();
    let var_names: Vec<&str> = ts.vars().iter().map(|&v| pool.name(v)).collect();
    let _ = writeln!(out, "vars:{};cost:{}", var_names.join(","), pool.name(ts.cost_var()));
    let _ = writeln!(out, "locs:{};init:{};term:{}", ts.num_locations(), ts.initial(), ts.terminal());
    for loc in ts.locations() {
        out.push_str(&location_form(ts, loc));
    }
    out
}

/// The canonical rendering of one location: its role flags, Θ0 when initial, and
/// its outgoing transitions in declaration order.
fn location_form(ts: &TransitionSystem, loc: crate::LocId) -> String {
    let mut out = String::new();
    let pool = ts.pool();
    let _ = write!(out, "@{loc}");
    if loc == ts.initial() {
        let theta0: Vec<String> = ts.theta0().iter().map(|e| e.to_string(pool)).collect();
        let _ = write!(out, " init[{}]", theta0.join(" /\\ "));
    }
    if loc == ts.terminal() {
        out.push_str(" term");
    }
    out.push('\n');
    for t in ts.outgoing(loc) {
        let guard: Vec<String> = t.guard.iter().map(|e| e.to_string(pool)).collect();
        let updates: Vec<String> = t
            .updates
            .iter()
            .map(|(v, u)| match u {
                Update::Assign(p) => format!("{}'={}", pool.name(*v), p.to_string(pool)),
                Update::Nondet => format!("{}'=*", pool.name(*v)),
            })
            .collect();
        let _ = writeln!(out, "  ->{} [{}] {{{}}}", t.target, guard.join(" /\\ "), updates.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use dca_poly::{LinExpr, Polynomial};

    use super::*;
    use crate::system::TsBuilder;

    fn simple_loop(name: &str, tick: i64) -> TransitionSystem {
        let mut b = TsBuilder::new();
        b.name(name);
        let i = b.var("i");
        let n = b.var("n");
        let head = b.location("head");
        let out = b.terminal();
        b.set_initial(head);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.add_theta0_eq(LinExpr::var(i));
        b.transition(head, head)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .tick(tick)
            .finish();
        b.transition(head, out)
            .guard(LinExpr::var(i) - LinExpr::var(n))
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn fingerprint_ignores_the_display_name() {
        let (a, b) = (simple_loop("alpha", 1), simple_loop("beta", 1));
        assert_eq!(
            location_fingerprints(&a),
            location_fingerprints(&b),
            "structurally identical systems must collide"
        );
        assert_eq!(canonical_form(&a), canonical_form(&b));
    }

    #[test]
    fn an_edit_changes_only_the_touched_location() {
        let (a, b) = (simple_loop("p", 1), simple_loop("p", 2));
        assert_ne!(
            canonical_form(&a),
            canonical_form(&b),
            "a tick edit must change the canonical form"
        );
        let (a, b) = (location_fingerprints(&a), location_fingerprints(&b));
        assert_eq!(a.len(), b.len());
        // The edit touches the loop head's outgoing transitions only; the terminal
        // location is untouched and must keep its sub-fingerprint.
        assert_ne!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn renaming_a_variable_changes_the_fingerprint() {
        let renamed = {
            let mut b = TsBuilder::new();
            b.name("p");
            let i = b.var("j");
            let n = b.var("n");
            let head = b.location("head");
            let out = b.terminal();
            b.set_initial(head);
            b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
            b.add_theta0_eq(LinExpr::var(i));
            b.transition(head, head)
                .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
                .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
                .tick(1)
                .finish();
            b.transition(head, out)
                .guard(LinExpr::var(i) - LinExpr::var(n))
                .finish();
            b.build().unwrap()
        };
        assert_ne!(
            canonical_form(&simple_loop("p", 1)),
            canonical_form(&renamed),
            "variable pairing is by name: renames must differ"
        );
    }

    #[test]
    fn fnv_basics() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"c"), fnv1a(b"abc"));
    }
}

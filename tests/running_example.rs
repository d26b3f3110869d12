//! Reproduction of the paper's running example (Fig. 1, Examples 2.2–2.3 and 4.4).
//!
//! The synthesis tests on the `join` pair were `#[ignore]`d through PR 1: the
//! floating-point simplex stalled on the (heavily degenerate) degree-2 synthesis LP
//! and reported a spurious infeasibility, misdiagnosed at the time as "generated
//! invariants too weak" — `examples/certprobe.rs` proves with the exact backend that
//! the LP is feasible under the generated invariants. With the anti-degeneracy
//! perturbation and tableau refactorization in `dca_lp`, the pair now synthesizes the
//! paper's threshold 10000. These are the slowest tests of the suite (the LP has
//! ~440 rows and ~1500 variables; a solve takes minutes on one core).

use diffcost::benchmarks::running_example;
use diffcost::prelude::*;

#[test]
fn join_threshold_is_ten_thousand() {
    let benchmark = running_example();
    let result = benchmark.solve().expect("the running example must be solvable");
    // Example 2.3: phi_new - chi_old = lenA * lenB <= 100 * 100.
    assert_eq!(result.threshold_int(), 10_000);
}

#[test]
fn join_9999_is_not_a_threshold() {
    let benchmark = running_example();
    let old = benchmark.old_program();
    let new = benchmark.new_program();
    let solver = DiffCostSolver::new(benchmark.options());
    // Example 4.4: 9999 can be exceeded (at lenA = lenB = 100).
    let refutation = solver
        .refute_threshold(&new, &old, 9_999, &[])
        .expect("9999 must be refutable");
    let len_a = new.ts.pool().lookup("lenA").unwrap();
    let len_b = new.ts.pool().lookup("lenB").unwrap();
    assert_eq!(refutation.witness_input.get(&len_a), Some(&100));
    assert_eq!(refutation.witness_input.get(&len_b), Some(&100));
}

#[test]
fn join_concrete_costs_match_closed_forms() {
    use diffcost::ir::{FixedOracle, Interpreter};
    let benchmark = running_example();
    let old = benchmark.old_program();
    let new = benchmark.new_program();
    let interpreter = Interpreter::default();
    for (len_a, len_b) in [(1i64, 1i64), (7, 3), (100, 100)] {
        let mut vals = diffcost::ir::IntValuation::new();
        for v in old.ts.vars() {
            vals.insert(v, 0);
        }
        vals.insert(old.ts.pool().lookup("lenA").unwrap(), len_a);
        vals.insert(old.ts.pool().lookup("lenB").unwrap(), len_b);
        let old_run = interpreter.run(&old.ts, &vals, &mut FixedOracle(0));
        assert_eq!(old_run.cost, len_a * len_b);

        let mut vals = diffcost::ir::IntValuation::new();
        for v in new.ts.vars() {
            vals.insert(v, 0);
        }
        vals.insert(new.ts.pool().lookup("lenA").unwrap(), len_a);
        vals.insert(new.ts.pool().lookup("lenB").unwrap(), len_b);
        let new_run = interpreter.run(&new.ts, &vals, &mut FixedOracle(0));
        assert_eq!(new_run.cost, 2 * len_a * len_b);
        // The difference never exceeds the Fig. 1 threshold 10000.
        assert!(new_run.cost - old_run.cost <= 10_000);
    }
}

/// The renderings of `join` are pinned byte for byte: the serve cache keys on
/// `canonical_form()`, and `dca diff` prints the witnesses with
/// `PotentialFunction::render`, both built on the `dca_poly` renderings.
#[test]
fn join_renderings_are_pinned() {
    let benchmark = running_example();
    let old = benchmark.old_program();
    let new = benchmark.new_program();
    assert_eq!(diffcost::ir::canonical_form(&old.ts), JOIN_OLD_CANONICAL);
    assert_eq!(diffcost::ir::canonical_form(&new.ts), JOIN_NEW_CANONICAL);
    let result = benchmark.solve().expect("the running example must be solvable");
    assert!(result.stats.lp_certified);
    assert!(result.split_systems.is_none(), "the witnesses must be over the input systems");
    assert_eq!(result.potential_new.render(&new.ts), JOIN_POTENTIAL_NEW);
    assert_eq!(result.anti_potential_old.render(&old.ts), JOIN_ANTI_POTENTIAL_OLD);
}

const JOIN_OLD_CANONICAL: &str = r#"vars:cost,i,j,lenA,lenB;cost:cost
locs:12;init:l0;term:l11
@l0 init[lenA - 1 /\ -lenA + 100 /\ lenB - 1 /\ -lenB + 100 /\ cost /\ -cost]
  ->l1 [] {i'=0}
@l1
  ->l2 [] {}
@l2
  ->l3 [-i + lenA - 1] {}
  ->l10 [i - lenA] {}
@l3
  ->l4 [] {j'=0}
@l4
  ->l5 [] {}
@l5
  ->l6 [-j + lenB - 1] {}
  ->l8 [j - lenB] {}
@l6
  ->l7 [] {cost'=1 + cost,j'=1 + j}
@l7
  ->l5 [] {}
@l8
  ->l9 [] {i'=1 + i}
@l9
  ->l2 [] {}
@l10
  ->l11 [] {}
@l11 term
  ->l11 [] {}
"#;

const JOIN_NEW_CANONICAL: &str = r#"vars:cost,i,j,lenA,lenB;cost:cost
locs:12;init:l0;term:l11
@l0 init[lenA - 1 /\ -lenA + 100 /\ lenB - 1 /\ -lenB + 100 /\ cost /\ -cost]
  ->l1 [] {i'=0}
@l1
  ->l2 [] {}
@l2
  ->l3 [-i + lenB - 1] {}
  ->l10 [i - lenB] {}
@l3
  ->l4 [] {j'=0}
@l4
  ->l5 [] {}
@l5
  ->l6 [-j + lenA - 1] {}
  ->l8 [j - lenA] {}
@l6
  ->l7 [] {cost'=2 + cost,j'=1 + j}
@l7
  ->l5 [] {}
@l8
  ->l9 [] {i'=1 + i}
@l9
  ->l2 [] {}
@l10
  ->l11 [] {}
@l11 term
  ->l11 [] {}
"#;

const JOIN_POTENTIAL_NEW: &str = r#"  l0_entry: 10000 + lenA*lenB
  l1_step: -100*i + 100*lenB - i*lenA + lenA*lenB
  l2_while_head: -100*i + 100*lenB - i*lenA + lenA*lenB
  l3_body: -100 - 100*i + lenA + 100*lenB - i*lenA + lenA*lenB
  l4_step: -100 - 100*i - 2*j + lenA + 100*lenB - i*lenA + lenA*lenB
  l5_while_head: -100 - 100*i - 2*j + lenA + 100*lenB - i*lenA + lenA*lenB
  l6_body: -100 - 100*i - 2*j + lenA + 100*lenB - i*lenA + lenA*lenB
  l7_step: -100 - 100*i - 2*j + lenA + 100*lenB - i*lenA + lenA*lenB
  l8_while_exit: -100 - 100*i - lenA + 100*lenB - i*lenA + lenA*lenB
  l9_step: -100*i + 100*lenB - i*lenA + lenA*lenB
  l10_while_exit: 0
  l_out: 0
"#;

const JOIN_ANTI_POTENTIAL_OLD: &str = r#"  l0_entry: lenA*lenB
  l1_step: -i*lenB + lenA*lenB
  l2_while_head: -i*lenB + lenA*lenB
  l3_body: -i*lenB + lenA*lenB
  l4_step: -j - i*lenB + lenA*lenB
  l5_while_head: -j - i*lenB + lenA*lenB
  l6_body: -j - i*lenB + lenA*lenB
  l7_step: -j - i*lenB + lenA*lenB
  l8_while_exit: -lenB - i*lenB + lenA*lenB
  l9_step: -i*lenB + lenA*lenB
  l10_while_exit: 0
  l_out: 0
"#;

//! Pins the invariant engine's output on the Table-1 suite and the Table-2 smoke
//! corpus.
//!
//! For both sides of every pair this renders the invariant map the solver consumes
//! and, where loop-phase splitting fires, the invariants of the split system too.
//! The FNV-1a hash of the concatenation must equal a recorded constant, so any
//! change to the invariant layer — a different join, widening or cleanup, even one
//! the LP never notices — shows up here before it shows up (or hides) in a
//! threshold. Table 1 and Table 2 are pinned separately: the generated corpus
//! exercises shapes (phase flips, equivalent rewrites) the hand pairs do not.
//!
//! When a change to the engine is deliberate, re-record the constant from the
//! `actual` value in the failure message, and say why in the change log.

use diffcost::benchmarks::table2::table2_smoke;
use diffcost::benchmarks::{all_benchmarks, running_example};
use diffcost::core::AnalyzedProgram;
use diffcost::ir::fingerprint::fnv1a;
use diffcost::ir::split_phases;

/// FNV-1a of the rendered invariants of all 40 programs plus their split systems.
const PINNED: u64 = 0x1b59_e245_52de_02c9;

/// FNV-1a of the rendered invariants of both sides of the 24 `table2_smoke()`
/// pairs plus their split systems.
const PINNED_TABLE2_SMOKE: u64 = 0x452f_98f7_e364_8bd7;

/// Appends the rendered invariants of one program, and of its split system when
/// loop-phase splitting fires, to `rendered`. Returns the number of split systems
/// rendered (0 or 1).
fn render_program(rendered: &mut String, label: &str, program: &AnalyzedProgram) -> usize {
    rendered.push_str(&format!("{label}\n"));
    rendered.push_str(&program.invariants.render(&program.ts));
    let Some(split) = split_phases(&program.ts) else {
        return 0;
    };
    let split = AnalyzedProgram::from_ts(split.ts);
    rendered.push_str(&format!("{label} split\n"));
    rendered.push_str(&split.invariants.render(&split.ts));
    1
}

#[test]
fn invariant_maps_of_the_table1_suite_are_pinned() {
    let mut rendered = String::new();
    let mut splits = 0usize;
    for benchmark in all_benchmarks().into_iter().chain([running_example()]) {
        for (side, program) in [
            ("new", benchmark.new_program()),
            ("old", benchmark.old_program()),
        ] {
            splits += render_program(&mut rendered, &format!("{}/{side}", benchmark.name), &program);
        }
    }
    assert!(splits > 0, "no Table-1 program exercised the split system");
    let actual = fnv1a(rendered.as_bytes());
    assert_eq!(
        actual, PINNED,
        "invariant output changed (actual {actual:#018x}, {splits} split systems):\n{rendered}"
    );
}

#[test]
fn invariant_maps_of_the_table2_smoke_corpus_are_pinned() {
    let mut rendered = String::new();
    let mut splits = 0usize;
    let pairs = table2_smoke();
    assert_eq!(pairs.len(), 24, "the Table-2 smoke subset changed size");
    for pair in &pairs {
        for (side, source) in [("new", &pair.source_new), ("old", &pair.source_old)] {
            let program = AnalyzedProgram::from_source(source)
                .unwrap_or_else(|e| panic!("{} {side}: {e}", pair.name));
            splits += render_program(&mut rendered, &format!("{}/{side}", pair.name), &program);
        }
    }
    assert!(splits > 0, "no Table-2 smoke program exercised the split system");
    let actual = fnv1a(rendered.as_bytes());
    assert_eq!(
        actual, PINNED_TABLE2_SMOKE,
        "invariant output changed (actual {actual:#018x}, {splits} split systems):\n{rendered}"
    );
}

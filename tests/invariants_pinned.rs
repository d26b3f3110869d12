//! Pins the invariant engine's output on the whole Table-1 suite.
//!
//! For both sides of every Table-1 pair (and the running example) this renders
//! the invariant map the solver consumes and, where loop-phase splitting fires,
//! the invariants of the split system too. The FNV-1a hash of the concatenation
//! must equal a recorded constant, so any change to the invariant layer — a
//! different join, widening or cleanup, even one the LP never notices — shows up
//! here before it shows up (or hides) in a threshold.
//!
//! When a change to the engine is deliberate, re-record the constant from the
//! `actual` value in the failure message, and say why in the change log.

use diffcost::benchmarks::{all_benchmarks, running_example};
use diffcost::core::AnalyzedProgram;
use diffcost::ir::fingerprint::fnv1a;
use diffcost::ir::split_phases;

/// FNV-1a of the rendered invariants of all 40 programs plus their split systems.
const PINNED: u64 = 0x1b59_e245_52de_02c9;

#[test]
fn invariant_maps_of_the_table1_suite_are_pinned() {
    let mut rendered = String::new();
    let mut splits = 0usize;
    for benchmark in all_benchmarks().into_iter().chain([running_example()]) {
        for (side, program) in [
            ("new", benchmark.new_program()),
            ("old", benchmark.old_program()),
        ] {
            rendered.push_str(&format!("{}/{side}\n", benchmark.name));
            rendered.push_str(&program.invariants.render(&program.ts));
            if let Some(split) = split_phases(&program.ts) {
                splits += 1;
                let split = AnalyzedProgram::from_ts(split.ts);
                rendered.push_str(&format!("{}/{side} split\n", benchmark.name));
                rendered.push_str(&split.invariants.render(&split.ts));
            }
        }
    }
    assert!(splits > 0, "no Table-1 program exercised the split system");
    let actual = fnv1a(rendered.as_bytes());
    assert_eq!(
        actual, PINNED,
        "invariant output changed (actual {actual:#018x}, {splits} split systems):\n{rendered}"
    );
}

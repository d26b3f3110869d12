//! A malformed or empty `DCA_FAULT` is rejected once, before any pair runs: the
//! process prints one message naming the spec and exits with code 2, with no row
//! output. (A panic instead would repeat at every phase entry and be contained as
//! a per-pair failure, degrading every row of the batch.)

use std::process::Command;

fn run_smoke(spec: &str) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_smoke"))
        .env("DCA_FAULT", spec)
        .output()
        .expect("the smoke binary must start");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn a_malformed_fault_spec_exits_2_once_before_any_pair_runs() {
    for spec in ["", "bogus:panic"] {
        let (code, stdout, stderr) = run_smoke(spec);
        assert_eq!(code, Some(2), "DCA_FAULT={spec:?}: stderr was {stderr:?}");
        let message = format!("DCA_FAULT: unknown phase in {spec:?}");
        assert_eq!(
            stderr.matches(&message).count(),
            1,
            "DCA_FAULT={spec:?}: the spec must be rejected exactly once, stderr was {stderr:?}"
        );
        assert!(!stderr.contains("panicked"), "DCA_FAULT={spec:?}: {stderr:?}");
        assert!(stdout.is_empty(), "DCA_FAULT={spec:?}: no row may be printed, got {stdout:?}");
    }
}

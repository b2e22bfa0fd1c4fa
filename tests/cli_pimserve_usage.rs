//! Integration: `pimserve` exit codes for bad invocations.
//!
//! Usage errors (unknown or retired flags, out-of-range values) exit 2
//! before any index work; a reference that cannot be read exits 3. A
//! missing reference fails *after* flag parsing without ever binding a
//! socket, so no row of the table has to drain a live server.

use std::process::Command;

#[test]
fn pimserve_usage_errors_exit_2_and_missing_reference_exits_3() {
    for (args, expect_exit, needle) in [
        (&["/nonexistent/ref.fa", "--bogus"][..], 2, "unknown option"),
        (
            &["/nonexistent/ref.fa", "--kernel-simd", "auto"][..],
            2,
            "unknown option",
        ),
        (
            &["/nonexistent/ref.fa", "--kernel-batch", "0"][..],
            2,
            "--kernel-batch",
        ),
        (&["/nonexistent/ref.fa"][..], 3, "cannot read"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimserve"))
            .args(args)
            .output()
            .expect("run pimserve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(expect_exit),
            "pimserve {args:?}: exit {:?}, stderr:\n{stderr}",
            out.status.code()
        );
        assert!(
            stderr.contains(needle),
            "pimserve {args:?}: stderr missing {needle:?}:\n{stderr}"
        );
    }
}

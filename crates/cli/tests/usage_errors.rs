//! The `asynoc` binary's parse-error contract: one `error:` line naming
//! the problem, one pointer to `asynoc help`, exit code 2.

use std::process::Command;

#[test]
fn parse_errors_print_two_lines_and_exit_2() {
    for args in [
        &["run", "--arch", "Baseline", "--bogus", "3"][..],
        &["fly"],
        &[
            "run",
            "--arch",
            "Baseline",
            "--benchmark",
            "Multicast5",
            "--rate",
            "0.2",
            "--flits",
            "0",
        ],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_asynoc"))
            .args(args)
            .output()
            .expect("the asynoc binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}: nothing on stdout");
        let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{args:?}: {stderr}");
        assert!(lines[0].starts_with("error: "), "{stderr}");
        assert_eq!(lines[1], "run 'asynoc help' for usage");
    }
}

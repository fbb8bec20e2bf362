//! `octree` prints its usage text for argument errors only: a command
//! that parses but then fails reports its one `error:` line.

use std::process::{Command, Output};

fn octree(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_octree"))
        .args(args)
        .output()
        .expect("run octree")
}

#[test]
fn a_runtime_error_prints_one_error_line_without_usage() {
    let missing = std::env::temp_dir().join("octree-usage-test-no-such-tree.oct");
    let out = octree(&["inspect", "--tree", missing.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn an_argument_error_prints_the_usage() {
    let out = octree(&["inspect", "--tree", "t.oct", "--no-such-flag", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

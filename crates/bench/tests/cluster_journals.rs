//! The `cluster` binary's crash drill cleans up after itself: without
//! `--journal-dir`, the members journal into a scratch directory under
//! `$TMPDIR`, which is gone once the run ends.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn a_kill_drill_without_a_journal_dir_leaves_tmpdir_empty() {
    let tmpdir: PathBuf = std::env::temp_dir().join(format!("uba-journals-{}", std::process::id()));
    std::fs::create_dir_all(&tmpdir).expect("scratch TMPDIR");
    let output = Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args(["--nodes", "4", "--kill", "3"])
        .env("TMPDIR", &tmpdir)
        .output()
        .expect("cluster runs");
    let left: Vec<PathBuf> = std::fs::read_dir(&tmpdir)
        .expect("TMPDIR still there")
        .map(|entry| entry.expect("entry").path())
        .collect();
    let _ = std::fs::remove_dir_all(&tmpdir);
    assert!(
        output.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(left.is_empty(), "left behind: {left:?}");
}

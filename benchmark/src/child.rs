//! Child processes of the benchmark binary itself. A workload whose calls
//! leave threads, sockets or heap behind runs them in children, so that
//! what one batch leaves cannot tax the next; the child answers in JSON
//! lines on its standard output.

use std::ffi::OsStr;
use std::process::{Command, Stdio};

use crate::json::Json;

/// Runs this executable with `args` to completion and returns the JSON
/// lines it printed. Its standard error is passed through.
pub fn json_lines<S: AsRef<OsStr>>(args: impl IntoIterator<Item = S>) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let args: Vec<_> = args.into_iter().collect();
    let what = args
        .first()
        .map_or_else(String::new, |a| a.as_ref().to_string_lossy().into_owned());
    let output = Command::new(exe)
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn `{what}` child: {e}"))?;
    if !output.status.success() {
        return Err(format!("`{what}` child failed with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|line| Json::parse(line).map_err(|e| format!("`{what}` child printed {line:?}: {e}")))
        .collect()
}

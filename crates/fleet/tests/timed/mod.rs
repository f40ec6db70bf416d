//! Runs the `ninja` binary under a wall-clock bound.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// How a bounded run ended.
pub struct Run {
    /// The exit code (a run killed by a signal fails the caller).
    pub code: i32,
    #[allow(dead_code)] // Only cli.rs reads the report.
    pub stdout: String,
    pub stderr: String,
}

/// Runs `ninja args` and fails the calling test if it is still running
/// after 10 s or ends on a signal. Its output goes through files, so a
/// long report cannot stall it on a full pipe.
pub fn run_within_10_s<S: AsRef<str>>(args: &[S]) -> Run {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = dir.join(format!("timed-{}-{n}.stdout", std::process::id()));
    let err = dir.join(format!("timed-{}-{n}.stderr", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_ninja"))
        .args(&args)
        .stdin(Stdio::null())
        .stdout(fs::File::create(&out).expect("stdout file"))
        .stderr(fs::File::create(&err).expect("stderr file"))
        .spawn()
        .expect("spawn ninja");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for ninja") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(10) {
            child.kill().ok();
            child.wait().ok();
            panic!("ninja {args:?} was still running after 10 s");
        }
        sleep(Duration::from_millis(10));
    };
    let read = |path: &PathBuf| {
        let text = String::from_utf8_lossy(&fs::read(path).expect("output file")).into_owned();
        fs::remove_file(path).ok();
        text
    };
    let (stdout, stderr) = (read(&out), read(&err));
    let code = status
        .code()
        .unwrap_or_else(|| panic!("ninja {args:?} ended on a signal: {status}\n{stderr}"));
    Run {
        code,
        stdout,
        stderr,
    }
}

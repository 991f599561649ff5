//! Host context recorded with every result, and the process's peak
//! resident memory.

use std::path::Path;

/// Hardware threads the host offers (what the CLI's defaults resolve from).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit under test, read from `.git` in the working directory, else
/// `"unknown"` (a source export has no `.git`).
pub fn git_sha() -> String {
    read_git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's 64-bit `struct rusage`
    // (two `timeval`s then fourteen `long`s), the pointer is to a live,
    // writable value, and RUSAGE_SELF (0) is a valid `who`.
    let status = unsafe { getrusage(0, &mut usage) };
    if status != 0 {
        return 0.0;
    }
    // Linux reports `ru_maxrss` in KiB.
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_covers_a_touched_allocation() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mib() >= 64.0);
    }
}

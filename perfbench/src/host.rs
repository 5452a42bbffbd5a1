//! The host fingerprint every result carries.

use std::fs;
use std::path::Path;

pub struct Fingerprint {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub commit: String,
    pub seed: u64,
}

impl Fingerprint {
    pub fn collect(seed: u64) -> Fingerprint {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(),
            seed,
        }
    }

    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu", self.cpu.clone()),
            ("rustc", self.rustc.to_string()),
            ("commit", self.commit.clone()),
            ("seed", self.seed.to_string()),
        ]
    }
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

/// The commit `HEAD` names. `dot_git` is a directory, or, in a worktree or
/// submodule, a file holding `gitdir: <dir>`; refs are looked up loose
/// first and then in `packed-refs`, in the worktree's common directory.
fn git_head(dot_git: &Path) -> Option<String> {
    let dir = match fs::read_to_string(dot_git) {
        Ok(link) => dot_git.parent()?.join(link.trim().strip_prefix("gitdir: ")?),
        Err(_) => dot_git.to_path_buf(),
    };
    let head = fs::read_to_string(dir.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    let common = fs::read_to_string(dir.join("commondir"))
        .map_or_else(|_| dir.clone(), |c| dir.join(c.trim()));
    [&dir, &common]
        .iter()
        .find_map(|d| fs::read_to_string(d.join(name)).ok())
        .map(|s| s.trim().to_string())
        .or_else(|| {
            let packed = fs::read_to_string(common.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follows_gitdir_files_and_packed_refs() {
        // `cargo test` runs in the package directory; `out/` is ignored by git.
        let root = Path::new("out").join(format!("git-test-{}", std::process::id()));
        let git = root.join("main.git");
        fs::create_dir_all(git.join("worktrees/wt")).unwrap();
        fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(git.join("packed-refs"), "# pack-refs\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_head(&git).as_deref(), Some("abc123"));

        let wt = git.join("worktrees/wt");
        fs::write(wt.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(wt.join("commondir"), "../..\n").unwrap();
        let link = root.join("checkout.git");
        fs::write(&link, "gitdir: main.git/worktrees/wt\n").unwrap();
        assert_eq!(git_head(&link).as_deref(), Some("abc123"));

        fs::create_dir_all(git.join("refs/heads")).unwrap();
        fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_head(&link).as_deref(), Some("def456"));
        assert_eq!(git_head(&root.join("missing")), None);
        fs::remove_dir_all(&root).unwrap();
    }
}

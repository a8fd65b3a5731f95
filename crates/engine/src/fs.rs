//! Crash-safe file I/O for every artifact the engine persists, with
//! deterministic disk-fault injection for chaos drills.
//!
//! Three primitives cover all on-disk traffic:
//!
//! - [`Fs::write_atomic`] — write-temp + fsync + rename, so a reader never
//!   observes a half-written file: it sees the old bytes or the new bytes,
//!   nothing in between. Used for the result cache, profile/signoff
//!   exports, and benchmark baselines.
//! - [`Fs::append_durable`] — append + fsync, for the checkpoint journal
//!   and the run ledger. A crash can tear at most the *trailing* record,
//!   which CRC framing lets readers detect and skip.
//! - [`Fs::read`] — plain read, with an optional injected bit-flip so the
//!   corruption-detection paths (CRC mismatches) are drilled end to end.
//!
//! Fault injection is a [`Plan`] of [`FsFaultKind`]s whose sites are full
//! file paths — the destination path of the operation, never a fragment of
//! it, so a rule for `x.cache` leaves `x.cache.journal` alone. Each rule
//! fires on its first `n` operations that could suffer it (a `BitFlip` on
//! reads, a `RenameFail` on atomic replacements, …).

use crate::fault::Plan;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every persisted record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// The disk failure class a [`Plan`] injects through [`Fs::with_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFaultKind {
    /// Write only the first half of the payload, then report success —
    /// the torn write a power loss between write and fsync leaves behind.
    ShortWrite,
    /// Fail the write with [`io::ErrorKind::StorageFull`] (ENOSPC).
    NoSpace,
    /// Fail the fsync — the "fsync lied" class of disk firmware bugs.
    FsyncFail,
    /// Fail the atomic rename, leaving the destination untouched.
    RenameFail,
    /// Flip one bit in the bytes a read returns (silent media corruption);
    /// the flipped position is a pure function of the content length.
    BitFlip,
}

impl FsFaultKind {
    /// Stable lower-case name (chaos-drill reports).
    pub fn name(self) -> &'static str {
        match self {
            FsFaultKind::ShortWrite => "short_write",
            FsFaultKind::NoSpace => "no_space",
            FsFaultKind::FsyncFail => "fsync_fail",
            FsFaultKind::RenameFail => "rename_fail",
            FsFaultKind::BitFlip => "bit_flip",
        }
    }
}

/// The I/O handle every persistence site goes through: real std I/O by
/// default, with an optional fault [`Plan`] consulted on each operation.
/// Cloning shares the plan (and its occurrence counters).
#[derive(Debug, Clone, Default)]
pub struct Fs {
    faults: Option<Arc<Mutex<Plan<FsFaultKind>>>>,
}

impl Fs {
    /// Plain, fault-free filesystem access.
    pub fn real() -> Self {
        Self::default()
    }

    /// Filesystem access with `plan`'s faults injected; a rule's site is
    /// the full path of the file an operation targets.
    pub fn with_faults(plan: Plan<FsFaultKind>) -> Self {
        Fs { faults: Some(Arc::new(Mutex::new(plan))) }
    }

    /// Consume one firing of the first live rule of `kind` at `path`, if
    /// any.
    fn take_fault(&self, path: &Path, kind: FsFaultKind) -> bool {
        self.faults.as_ref().is_some_and(|plan| {
            let mut plan = plan.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            plan.fire(&path.to_string_lossy(), |&k| k == kind)
        })
    }

    /// Read a file's bytes, applying any planned [`FsFaultKind::BitFlip`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (a missing file is the caller's `NotFound`).
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = std::fs::read(path)?;
        if self.take_fault(path, FsFaultKind::BitFlip) && !bytes.is_empty() {
            // Deterministic target: the middle byte's bit 3. Content of a
            // given length always corrupts the same way.
            let at = bytes.len() / 2;
            bytes[at] ^= 0b1000;
        }
        Ok(bytes)
    }

    /// [`Fs::read`] as UTF-8 text (lossy — persisted artifacts are ASCII,
    /// and a bit-flipped byte must still reach the CRC check, not abort
    /// the load).
    pub fn read_to_string(&self, path: &Path) -> io::Result<String> {
        Ok(String::from_utf8_lossy(&self.read(path)?).into_owned())
    }

    /// Atomically replace `path` with `bytes`: write `<path>.tmp`, fsync,
    /// rename over the destination, fsync the directory. A crash (or an
    /// injected fault) can leave a stale or torn *temp* file, but the
    /// destination only ever holds the complete old or complete new bytes
    /// — except under an injected [`FsFaultKind::ShortWrite`], which
    /// deliberately publishes a torn file to drill readers.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the destination is untouched when the
    /// temp-file stage fails.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = {
            let mut os = path.as_os_str().to_owned();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        let torn = self.take_fault(path, FsFaultKind::ShortWrite);
        let written = if torn { &bytes[..bytes.len() / 2] } else { bytes };
        let result = (|| -> io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            if self.take_fault(path, FsFaultKind::NoSpace) {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"));
            }
            f.write_all(written)?;
            // A torn write models power loss before fsync completed, so the
            // fsync is skipped along with the payload tail.
            if !torn {
                if self.take_fault(path, FsFaultKind::FsyncFail) {
                    return Err(io::Error::other("injected fsync failure"));
                }
                f.sync_all()?;
            }
            if self.take_fault(path, FsFaultKind::RenameFail) {
                return Err(io::Error::other("injected rename failure"));
            }
            std::fs::rename(&tmp, path)?;
            // Make the rename itself durable (best-effort: not every
            // filesystem lets you open a directory for sync).
            if let Some(dir) = path.parent() {
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Append `bytes` to `path` (creating it if needed) and fsync, so a
    /// completed append survives power loss. A crash — or an injected
    /// [`FsFaultKind::ShortWrite`] — can tear the *last* record only;
    /// CRC-framed readers detect and skip it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.take_fault(path, FsFaultKind::NoSpace) {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"));
        }
        let torn = self.take_fault(path, FsFaultKind::ShortWrite);
        let written = if torn { &bytes[..bytes.len() / 2] } else { bytes };
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(written)?;
        if !torn {
            if self.take_fault(path, FsFaultKind::FsyncFail) {
                return Err(io::Error::other("injected fsync failure"));
            }
            f.sync_all()?;
        }
        Ok(())
    }

    /// Remove a file; a missing file is success (idempotent cleanup).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than `NotFound`.
    pub fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::Journal;
    use crate::fault::ALWAYS;

    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pcv-fs-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Published CRC-32 (IEEE) check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let d = dir("atomic");
        let path = d.join("file");
        let fs = Fs::real();
        fs.write_atomic(&path, b"first").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"first");
        fs.write_atomic(&path, b"second, longer payload").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"second, longer payload");
        assert!(!d.join("file.tmp").exists(), "temp file must not linger");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn failed_atomic_write_leaves_old_bytes() {
        let d = dir("atomic-fail");
        let path = d.join("file");
        let fs = Fs::real();
        fs.write_atomic(&path, b"stable").unwrap();
        for kind in [FsFaultKind::NoSpace, FsFaultKind::FsyncFail, FsFaultKind::RenameFail] {
            let faulty = Fs::with_faults(Plan::new().at(path.display(), ALWAYS, kind));
            let err = faulty.write_atomic(&path, b"overwrite").unwrap_err();
            if kind == FsFaultKind::NoSpace {
                assert_eq!(err.kind(), io::ErrorKind::StorageFull);
            }
            assert_eq!(Fs::real().read(&path).unwrap(), b"stable", "{} damaged it", kind.name());
            assert!(!d.join("file.tmp").exists(), "{} leaked a temp file", kind.name());
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn short_write_publishes_a_torn_file() {
        let d = dir("torn");
        let path = d.join("file");
        let fs = Fs::with_faults(Plan::new().at(path.display(), 1, FsFaultKind::ShortWrite));
        fs.write_atomic(&path, b"0123456789").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"01234", "only half landed");
        // The fault was one-shot: the next write is whole again.
        fs.write_atomic(&path, b"0123456789").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"0123456789");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn append_accumulates_and_short_append_tears_the_tail() {
        let d = dir("append");
        let path = d.join("log");
        let fs = Fs::with_faults(Plan::new().at(path.display(), 1, FsFaultKind::ShortWrite));
        fs.append_durable(&path, b"torn-record\n").unwrap(); // one-shot fault fires here
        fs.append_durable(&path, b"whole-1\n").unwrap();
        fs.append_durable(&path, b"whole-2\n").unwrap();
        let text = String::from_utf8(fs.read(&path).unwrap()).unwrap();
        assert!(text.starts_with("torn-"), "got {text:?}");
        assert!(text.contains("whole-1\n"));
        assert!(text.contains("whole-2\n"));
        assert!(!text.contains("torn-record"), "the torn append must be incomplete");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn bit_flip_corrupts_reads_deterministically() {
        let d = dir("flip");
        let path = d.join("file");
        Fs::real().write_atomic(&path, b"abcdefgh").unwrap();
        let flipped = |fs: &Fs| fs.read(&path).unwrap();
        let plan = Plan::new().at(path.display(), ALWAYS, FsFaultKind::BitFlip);
        let a = flipped(&Fs::with_faults(plan.clone()));
        let b = flipped(&Fs::with_faults(plan));
        assert_eq!(a, b, "the flip is a pure function of the content");
        assert_ne!(a, b"abcdefgh");
        assert_eq!(a.iter().zip(b"abcdefgh").filter(|(x, y)| x != y).count(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn faults_only_hit_matching_paths() {
        let d = dir("match");
        let cache = d.join("signoff.cache");
        let fs = Fs::with_faults(Plan::new().at(cache.display(), ALWAYS, FsFaultKind::NoSpace));
        fs.write_atomic(&d.join("journal"), b"ok").unwrap();
        // A site is the whole path: the cache's siblings share its prefix
        // and are still not it.
        fs.write_atomic(&Journal::path_for(&cache), b"ok").unwrap();
        assert!(fs.write_atomic(&cache, b"no").is_err());
        let _ = std::fs::remove_dir_all(&d);
    }
}

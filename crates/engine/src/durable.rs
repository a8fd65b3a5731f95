//! The durability layer: write-ahead checkpoint journal, advisory run
//! lock, and cooperative stop flag — everything that makes a sign-off run
//! killable and resumable. Their lifecycle within a run (when each file is
//! opened, consulted, retired) is the record store's.
//!
//! # Journal
//!
//! `<cache>.journal` holds one CRC-framed JSON line per *freshly computed*
//! cluster [record](crate::record) — `\<crc32 as 8 hex\> \<space\> \<json
//! payload\>`, the CRC over the payload bytes — after a header line
//! carrying the config and chip-slice fingerprints. A `SIGKILL` or power
//! loss loses at most the clusters in flight; a
//! [`resume`](crate::RunRequest::resume) against a journal whose header no
//! longer matches runs fresh — a stale journal can cost recomputation,
//! never correctness.
//!
//! # Lock
//!
//! [`RunLock`] is an advisory `<cache>.lock` file created with
//! `O_CREAT|O_EXCL`, holding the owner's pid: a second run against the same
//! cache path gets a typed contention error instead of the two corrupting
//! each other's journal and cache. A lock left by a dead process is broken.
//!
//! # Stop
//!
//! [`StopFlag`] is the graceful half of kill-and-resume: raising it makes
//! the engine drain — in-flight clusters complete (so their verdicts stay
//! deterministic and journaled), queued clusters are skipped — and the run
//! returns early with a valid checkpoint on disk and the ledger marked
//! resumable.

use crate::fs::{crc32, Fs};
use crate::record::JournalEntry;
use pcv_mor::CancelToken;
use pcv_obs::{EngineEvent, EventSink};
use pcv_trace::json::{self, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cooperative stop request for a running engine. Clones share the flag.
///
/// Raising the flag ([`StopFlag::stop`]) asks the engine to drain: no new
/// cluster jobs start, in-flight ones finish and are checkpointed, and the
/// run returns an [interrupted](crate::EngineReport::interrupted) report.
#[derive(Debug, Clone, Default)]
pub struct StopFlag {
    token: CancelToken,
}

impl StopFlag {
    /// A flag that never fires until [`StopFlag::stop`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a graceful stop. All clones observe it.
    pub fn stop(&self) {
        self.token.cancel();
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.token.is_cancelled()
    }
}

/// An [`EventSink`] that raises a [`StopFlag`] after a fixed number of
/// cluster completions — the deterministic "kill switch" the crash drills
/// use to interrupt a run at a chosen progress point.
#[derive(Debug)]
pub struct StopAfter {
    flag: StopFlag,
    remaining: AtomicUsize,
}

impl StopAfter {
    /// Stop `flag` once `after` clusters have finished.
    pub fn new(flag: StopFlag, after: usize) -> Self {
        StopAfter { flag, remaining: AtomicUsize::new(after) }
    }
}

impl EventSink for StopAfter {
    fn event(&self, ev: &EngineEvent) {
        if matches!(ev, EngineEvent::ClusterFinished { .. }) {
            let before = self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .unwrap_or(0);
            if before <= 1 {
                self.flag.stop();
            }
        }
    }
}

/// Result of loading a journal for replay.
#[derive(Debug, Clone, Default)]
pub struct JournalLoad {
    /// `(config_fingerprint, chip_fingerprint)` from the header record,
    /// when one was readable.
    pub header: Option<(u64, u64)>,
    /// Every intact cluster record, in append order.
    pub entries: Vec<JournalEntry>,
    /// Lines dropped for framing, CRC, or schema reasons (a torn tail
    /// append shows up here, not as a wrong verdict).
    pub skipped: usize,
}

/// The write-ahead checkpoint journal: an append handle over
/// `<cache>.journal`. See the [module docs](self) for the format.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
    fs: Fs,
}

/// Frame one payload as a journal line: CRC over the payload bytes.
fn frame(payload: &str) -> String {
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

/// Unframe one journal line: verify the CRC, return the payload.
fn unframe(line: &str) -> Option<&str> {
    // A damaged line may hold multi-byte (lossily replaced) characters
    // anywhere, so the frame is taken apart by checked splits only.
    let (crc_hex, payload) = line.split_at_checked(9)?;
    let crc = pcv_trace::parse_hex::<u32>(crc_hex.strip_suffix(' ')?)?;
    (crc32(payload.as_bytes()) == crc).then_some(payload)
}

impl Journal {
    /// The journal path for a cache at `cache`: `<cache>.journal`.
    pub fn path_for(cache: &Path) -> PathBuf {
        let mut os = cache.as_os_str().to_owned();
        os.push(".journal");
        PathBuf::from(os)
    }

    /// Start a fresh journal at `path`, truncating any previous one: the
    /// header record (config + chip fingerprints) is written atomically,
    /// so a crash right here leaves either the old journal or a valid new
    /// header — never a torn header.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers treat the journal as best-effort
    /// (a run without a journal is still correct, just not resumable).
    pub fn begin(fs: &Fs, path: &Path, config_fp: u64, chip_fp: u64) -> io::Result<Journal> {
        let header = json::object(|o| {
            o.str("kind", "run").hex("config", config_fp).hex("chip", chip_fp);
        });
        fs.write_atomic(path, frame(&header).as_bytes())?;
        Ok(Journal { path: path.to_owned(), fs: fs.clone() })
    }

    /// Continue appending to an existing journal (the resume path — the
    /// replayed records stay in place, new verdicts append after them).
    pub(crate) fn append_to(fs: &Fs, path: &Path) -> Journal {
        Journal { path: path.to_owned(), fs: fs.clone() }
    }

    /// Append one checkpoint record, durably (fsync'd).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed append costs resume coverage for
    /// this one cluster, nothing else.
    pub fn record(&self, entry: &JournalEntry) -> io::Result<()> {
        self.fs.append_durable(&self.path, frame(&entry.to_journal_json()).as_bytes())
    }

    /// Append a batch of checkpoint records in one durable write — the
    /// coordinator's journal-merge path, where per-entry fsync would turn
    /// a thousand-cluster merge into a thousand disk round-trips.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the append is all-or-torn-tail, and a torn
    /// tail is exactly what [`Journal::load`] tolerates.
    pub(crate) fn record_all(&self, entries: &[JournalEntry]) -> io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for entry in entries {
            buf.push_str(&frame(&entry.to_journal_json()));
        }
        self.fs.append_durable(&self.path, buf.as_bytes())
    }

    /// Load a journal for replay. Never errors: a missing file is an empty
    /// load, and corrupt lines — torn tail appends, bit flips — are
    /// counted in [`JournalLoad::skipped`] and dropped.
    pub fn load(fs: &Fs, path: &Path) -> JournalLoad {
        let mut load = JournalLoad::default();
        let Ok(text) = fs.read_to_string(path) else {
            return load;
        };
        for (i, line) in text.lines().enumerate() {
            let parsed = unframe(line).and_then(|payload| json::parse(payload).ok());
            let Some(v) = parsed else {
                load.skipped += 1;
                continue;
            };
            match v.get("kind").and_then(Value::as_str) {
                Some("run") if i == 0 => {
                    let hex = |key: &str| pcv_trace::parse_hex::<u64>(v.get(key)?.as_str()?);
                    match (hex("config"), hex("chip")) {
                        (Some(c), Some(ch)) => load.header = Some((c, ch)),
                        _ => load.skipped += 1,
                    }
                }
                Some("cluster") => match JournalEntry::from_journal_json(&v) {
                    Some(entry) => load.entries.push(entry),
                    None => load.skipped += 1,
                },
                _ => load.skipped += 1,
            }
        }
        load
    }

    /// Delete the journal (after its contents made it into the cache).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file already being gone.
    pub(crate) fn discard(&self) -> io::Result<()> {
        self.fs.remove(&self.path)
    }
}

/// Why [`RunLock::acquire`] failed.
#[derive(Debug)]
pub enum LockError {
    /// A live process holds the lock.
    Held {
        /// Pid recorded in the lock file.
        pid: u32,
    },
    /// The lock file could not be created or inspected. Advisory locking
    /// is best-effort; callers may proceed unlocked on this branch.
    Io(io::Error),
}

/// An advisory per-cache-directory run lock. Holding the value holds the
/// lock; dropping it releases (deletes) the lock file.
#[derive(Debug)]
pub struct RunLock {
    path: PathBuf,
}

/// Whether `pid` names a live process. On Linux this checks `/proc`;
/// elsewhere it conservatively answers `true` (never break a lock we
/// cannot prove stale).
fn process_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

impl RunLock {
    /// The lock path for a cache at `cache`: `<cache>.lock`.
    pub fn path_for(cache: &Path) -> PathBuf {
        let mut os = cache.as_os_str().to_owned();
        os.push(".lock");
        PathBuf::from(os)
    }

    /// Take the lock at `path`, recording our pid and `config_fp`. A lock
    /// held by a dead process (or unreadable) is broken and retaken; a
    /// lock held by a live process is [`LockError::Held`].
    ///
    /// Breaking a stale lock is a single atomic rename onto a
    /// contender-unique claim path: two waiters deciding "stale" at the
    /// same moment cannot both break it, because only one rename of the
    /// same inode succeeds — the loser re-enters the create race and loses
    /// it. Lock files are also *created* atomically with their content
    /// (write a private temp file, then `hard_link` it into place), so a
    /// contender can never observe a half-written lock and misjudge it as
    /// garbage.
    ///
    /// # Errors
    ///
    /// [`LockError::Held`] on contention, [`LockError::Io`] when the file
    /// cannot be created at all.
    pub fn acquire(path: &Path, config_fp: u64) -> Result<RunLock, LockError> {
        let body = format!("pid {}\nconfig {config_fp:016x}\n", std::process::id());
        // Each iteration either returns or observes another contender make
        // progress; a handful of retries outlasts any realistic pile-up.
        for _ in 0..8 {
            match Self::try_create(path, &body) {
                Ok(true) => return Ok(RunLock { path: path.to_owned() }),
                Ok(false) => {}
                Err(e) => return Err(LockError::Io(e)),
            }
            let holder = std::fs::read_to_string(path).ok().and_then(|text| Self::parse_pid(&text));
            if let Some(pid) = holder {
                if process_alive(pid) {
                    return Err(LockError::Held { pid });
                }
            } else if !path.exists() {
                // The file vanished between the failed create and the read:
                // another contender broke it. Re-enter the create race.
                continue;
            }
            // Suspected stale (dead holder, or garbage content). Claim it
            // with one atomic rename; of N simultaneous breakers exactly
            // one wins this rename, the rest fall through and retry.
            let claim = Self::scratch_path(path, "break");
            if std::fs::rename(path, &claim).is_ok() {
                // Re-read what we actually claimed: a live holder may have
                // released and re-taken the lock between our staleness read
                // and the rename. If so, put it back — via `hard_link`, so
                // a newer lock that appeared meanwhile is never clobbered.
                let claimed =
                    std::fs::read_to_string(&claim).ok().and_then(|text| Self::parse_pid(&text));
                if let Some(pid) = claimed.filter(|&p| process_alive(p)) {
                    let _ = std::fs::hard_link(&claim, path);
                    let _ = std::fs::remove_file(&claim);
                    return Err(LockError::Held { pid });
                }
                let _ = std::fs::remove_file(&claim);
            }
        }
        let pid =
            std::fs::read_to_string(path).ok().and_then(|text| Self::parse_pid(&text)).unwrap_or(0);
        Err(LockError::Held { pid })
    }

    /// Atomically materialize the lock file *with its content*: write a
    /// contender-private temp file, then `hard_link` it to `path` (link
    /// fails if `path` exists — the atomic part). Returns `Ok(false)` on
    /// contention.
    fn try_create(path: &Path, body: &str) -> io::Result<bool> {
        let tmp = Self::scratch_path(path, "tmp");
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().write(true).create_new(true).open(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        let linked = std::fs::hard_link(&tmp, path);
        let _ = std::fs::remove_file(&tmp);
        match linked {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// A sibling path unique to this contender — pid alone is not enough,
    /// two threads of one process can contend for the same lock.
    fn scratch_path(path: &Path, tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut os = path.as_os_str().to_owned();
        os.push(format!(".{tag}.{}.{n}", std::process::id()));
        PathBuf::from(os)
    }

    fn parse_pid(text: &str) -> Option<u32> {
        text.lines().find_map(|l| l.strip_prefix("pid "))?.trim().parse().ok()
    }
}

impl Drop for RunLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Plan, ALWAYS};
    use crate::fs::FsFaultKind;
    use crate::recovery::{Attempt, RecoveryRung, Trail};
    use pcv_xtalk::ReceiverVerdict;

    #[test]
    fn a_frame_crc_is_hex_digits_only() {
        // A payload whose CRC starts with a zero digit, so a sign fits in
        // the frame's eight columns.
        let payload =
            (0..).map(|i| format!("{{\"i\":{i}}}")).find(|p| crc32(p.as_bytes()) < 1 << 28);
        let payload = payload.unwrap();
        let crc = crc32(payload.as_bytes());
        assert_eq!(unframe(&format!("{crc:08x} {payload}")), Some(payload.as_str()));
        assert_eq!(unframe(&format!("+{crc:07x} {payload}")), None);
    }

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pcv-durable-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(name: &str, fp: u64) -> JournalEntry {
        let rx = ReceiverVerdict { cell: "INVX4".into(), output_peak: -1.2, propagates: true };
        let trail = Trail {
            recovered: RecoveryRung::GminBoost,
            attempts: vec![Attempt {
                rung: RecoveryRung::Baseline,
                reason: "numeric \"failure\"".into(),
                elapsed: std::time::Duration::ZERO,
            }],
        };
        JournalEntry::new(name, fp, 0.31, -0.07, Some(rx), Some(trail))
    }

    #[test]
    fn journal_round_trips_header_and_entries() {
        let d = dir("rt");
        let path = d.join("cache.journal");
        let fs = Fs::real();
        let j = Journal::begin(&fs, &path, 0xabc, 0xdef).unwrap();
        j.record(&entry("bus0_1", 7)).unwrap();
        j.record(&JournalEntry { degraded: None, receiver: None, ..entry("acc_q3", 8) }).unwrap();
        let load = Journal::load(&fs, &path);
        assert_eq!(load.header, Some((0xabc, 0xdef)));
        assert_eq!(load.skipped, 0);
        assert_eq!(load.entries.len(), 2);
        assert_eq!(load.entries[0], entry("bus0_1", 7));
        assert_eq!(load.entries[1].name, "acc_q3");
        assert!(load.entries[1].degraded.is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_record_is_skipped_not_misread() {
        let d = dir("torn");
        let path = d.join("cache.journal");
        let fs = Fs::real();
        let j = Journal::begin(&fs, &path, 1, 2).unwrap();
        j.record(&entry("whole", 7)).unwrap();
        // Simulate a crash mid-append: half a framed record at the tail.
        let line = frame(&entry("torn", 9).to_journal_json());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
        std::fs::write(&path, bytes).unwrap();
        let load = Journal::load(&fs, &path);
        assert_eq!(load.header, Some((1, 2)));
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.entries[0].name, "whole");
        assert_eq!(load.skipped, 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn bit_flip_on_read_fails_the_crc() {
        let d = dir("flip");
        let path = d.join("cache.journal");
        let j = Journal::begin(&Fs::real(), &path, 1, 2).unwrap();
        j.record(&entry("a", 7)).unwrap();
        let plan = Plan::new().at(path.display(), ALWAYS, FsFaultKind::BitFlip);
        let load = Journal::load(&Fs::with_faults(plan), &path);
        // The flip lands somewhere: whichever record it hits is dropped,
        // and nothing mis-parses into a wrong verdict.
        assert_eq!(load.entries.len() + load.skipped + usize::from(load.header.is_some()), 2);
        assert_eq!(load.skipped, 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_journal_is_an_empty_load() {
        let load = Journal::load(&Fs::real(), Path::new("/nonexistent/pcv.journal"));
        assert_eq!(load.header, None);
        assert!(load.entries.is_empty());
        assert_eq!(load.skipped, 0);
    }

    #[test]
    fn begin_truncates_a_previous_journal() {
        let d = dir("trunc");
        let path = d.join("cache.journal");
        let fs = Fs::real();
        let j = Journal::begin(&fs, &path, 1, 2).unwrap();
        j.record(&entry("old", 7)).unwrap();
        let j = Journal::begin(&fs, &path, 3, 4).unwrap();
        j.record(&entry("new", 8)).unwrap();
        let load = Journal::load(&fs, &path);
        assert_eq!(load.header, Some((3, 4)));
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.entries[0].name, "new");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn lock_contends_against_a_live_holder_and_breaks_stale_ones() {
        let d = dir("lock");
        let path = d.join("cache.lock");
        let lock = RunLock::acquire(&path, 0xfeed).unwrap();
        match RunLock::acquire(&path, 0xfeed) {
            Err(LockError::Held { pid }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected contention, got {other:?}"),
        }
        drop(lock);
        assert!(!path.exists(), "drop releases the lock file");
        // A lock from a pid that no longer exists is stale and broken.
        std::fs::write(&path, "pid 999999999\nconfig 0\n").unwrap();
        let lock = RunLock::acquire(&path, 0xfeed).unwrap();
        drop(lock);
        // Garbage lock files are stale too.
        std::fs::write(&path, "what even is this").unwrap();
        let _lock = RunLock::acquire(&path, 0xfeed).unwrap();
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn concurrent_stale_break_has_exactly_one_winner() {
        // Two waiters race to break the same stale lock. The break is one
        // atomic rename, so exactly one of them may win; the loser must
        // see a typed Held error, never a second "acquired" lock.
        for round in 0..16 {
            let d = dir(&format!("lock-race-{round}"));
            let path = d.join("cache.lock");
            std::fs::write(&path, "pid 999999999\nconfig 0\n").unwrap();
            let barrier = std::sync::Barrier::new(2);
            let outcomes: Vec<Result<RunLock, LockError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let (path, barrier) = (&path, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            RunLock::acquire(path, 0xfeed)
                        })
                    })
                    .collect();
                // Collect both results before any RunLock drops, so a
                // winner finishing early cannot free the lock and let the
                // loser legitimately take it.
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winners = outcomes.iter().filter(|o| o.is_ok()).count();
            assert_eq!(winners, 1, "round {round}: exactly one breaker may win: {outcomes:?}");
            assert!(
                outcomes.iter().all(|o| matches!(o, Ok(_) | Err(LockError::Held { .. }))),
                "round {round}: the loser sees typed contention: {outcomes:?}"
            );
            drop(outcomes);
            assert!(!path.exists(), "round {round}: winner's drop released the lock");
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn stop_after_fires_at_the_threshold() {
        let flag = StopFlag::new();
        let sink = StopAfter::new(flag.clone(), 2);
        let finished = |name: &str| EngineEvent::ClusterFinished {
            name: name.into(),
            cached: false,
            elapsed: std::time::Duration::ZERO,
        };
        assert!(!flag.is_stopped());
        sink.event(&finished("a"));
        assert!(!flag.is_stopped());
        sink.event(&EngineEvent::CacheHit { name: "x".into() });
        assert!(!flag.is_stopped(), "only completions count");
        sink.event(&finished("b"));
        assert!(flag.is_stopped());
        // Further events must not underflow or panic.
        sink.event(&finished("c"));
        assert!(flag.is_stopped());
    }
}

//! The record store of one run: the four files at a cache path — the
//! [result cache](crate::cache) `<cache>`, the [checkpoint
//! journal](crate::durable) `<cache>.journal`, the advisory [run
//! lock](RunLock) `<cache>.lock` and the run ledger `<cache>.ledger.jsonl` —
//! and the one order in which they are opened, consulted and closed. The
//! engine's jobs and the shard harvest adopt stored records through the
//! same [`RunStore::adopt`], so a record that sits in two files is counted
//! once, and the same way, by every reader.

use crate::cache::ResultCache;
use crate::durable::{Journal, LockError, RunLock};
use crate::fs::Fs;
use crate::record::JournalEntry;
use pcv_obs::RunRecord;
use pcv_xtalk::XtalkError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Which file an adopted record was stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The checkpoint journal of an interrupted run.
    Journal,
    /// The incremental cache.
    Cache,
}

/// The stored records of one cache path, open for one run (or, read-only,
/// for one harvest). Without a cache path it is empty and writes nothing.
pub(crate) struct RunStore {
    fs: Fs,
    cache_path: Option<PathBuf>,
    cache: ResultCache,
    /// Journaled records of the interrupted run this one resumes, by victim
    /// name (the last of a name journaled twice); `None`: nothing replayed.
    replay: Option<HashMap<String, JournalEntry>>,
    /// Lines the cache and journal loads dropped as torn or corrupt.
    pub(crate) torn_lines: usize,
    journal: Option<Journal>,
    /// Serializes checkpoint appends, so records never interleave mid-line.
    append: Mutex<()>,
    _lock: Option<RunLock>,
}

impl RunStore {
    /// Load what is stored at `cache_path`: the cache, and — when `resume`
    /// asks for it and its header names this `(config_fp, chip_fp)` — the
    /// journal. Takes no lock and writes nothing: the shard harvest's view
    /// of a shard's files.
    pub(crate) fn read(
        fs: &Fs,
        cache_path: Option<&Path>,
        config_fp: u64,
        chip_fp: u64,
        resume: bool,
    ) -> RunStore {
        let (mut cache, mut replay, mut torn_lines) = (ResultCache::new(), None, 0);
        if let Some(path) = cache_path {
            let _span = pcv_trace::span("engine", "cache_load");
            let (loaded, stats) = ResultCache::load_with(fs, path);
            cache = loaded;
            torn_lines += usize::from(stats.torn);
        }
        if let Some(path) = cache_path.filter(|_| resume) {
            let load = Journal::load(fs, &Journal::path_for(path));
            torn_lines += load.skipped;
            if load.header == Some((config_fp, chip_fp)) {
                replay = Some(load.entries.into_iter().map(|e| (e.name.clone(), e)).collect());
            }
        }
        RunStore {
            fs: fs.clone(),
            cache_path: cache_path.map(Path::to_owned),
            cache,
            replay,
            torn_lines,
            journal: None,
            append: Mutex::new(()),
            _lock: None,
        }
    }

    /// Open the store for a run: take the run lock (held until the store
    /// drops), [`RunStore::read`], then continue the replayed journal or
    /// begin a fresh one. A run that cannot write lock or journal is still
    /// correct, just unguarded or not resumable.
    ///
    /// # Errors
    ///
    /// [`XtalkError::Busy`] when a live process holds the lock: two runs
    /// would interleave journal appends and race the cache replace.
    pub(crate) fn open(
        fs: &Fs,
        cache_path: Option<&Path>,
        config_fp: u64,
        chip_fp: u64,
        resume: bool,
    ) -> Result<RunStore, XtalkError> {
        let _span = pcv_trace::span("engine", "store_open");
        let lock = match cache_path.map(RunLock::path_for) {
            Some(path) => match RunLock::acquire(&path, config_fp) {
                Ok(lock) => Some(lock),
                Err(LockError::Held { pid }) => {
                    return Err(XtalkError::Busy { path: path.display().to_string(), pid });
                }
                Err(LockError::Io(_)) => None,
            },
            None => None,
        };
        let mut store = RunStore::read(fs, cache_path, config_fp, chip_fp, resume);
        store._lock = lock;
        store.journal = cache_path.map(Journal::path_for).and_then(|path| match store.replay {
            Some(_) => Some(Journal::append_to(fs, &path)),
            None => Journal::begin(fs, &path, config_fp, chip_fp).ok(),
        });
        Ok(store)
    }

    /// How many journaled records a resumed run can replay; `None`: fresh.
    pub(crate) fn replayable(&self) -> Option<usize> {
        self.replay.as_ref().map(HashMap::len)
    }

    /// The stored record of victim `name`, if one was stored under
    /// fingerprint `fp` — exact `f64` bits, exact degradation trail. The
    /// journal is asked before the cache.
    pub(crate) fn adopt(&self, name: &str, fp: u64) -> Option<(&JournalEntry, Source)> {
        let journaled =
            self.replay.as_ref().and_then(|r| r.get(name)).filter(|e| e.fingerprint == fp);
        match journaled {
            Some(e) => Some((e, Source::Journal)),
            None => self.cache.lookup(name, fp).map(|e| (e, Source::Cache)),
        }
    }

    /// Checkpoint one freshly computed record: a durable journal append; a
    /// failed one costs resume coverage for this cluster, nothing else.
    pub(crate) fn checkpoint(&self, record: &JournalEntry) {
        if let Some(journal) = &self.journal {
            let _guard = self.append.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = journal.record(record);
        }
    }

    /// Close the run: save the cache with `fresh` folded in, retire the
    /// journal, append the ledger line. Best-effort: a failed save only
    /// costs future hits, and then (as after an `interrupted` run) the
    /// journal stays for the next resume. `record` is asked for the line
    /// after the save, so its wall time covers it; the append is fsync'd, so
    /// a "stopped, resumable" marker survives the kill that usually follows.
    pub(crate) fn close(
        &mut self,
        fresh: Vec<JournalEntry>,
        interrupted: bool,
        record: impl FnOnce() -> RunRecord,
    ) {
        let _span = pcv_trace::span("engine", "store_close");
        let mut saved = false;
        if let Some(path) = &self.cache_path {
            let _span = pcv_trace::span("engine", "cache_save");
            let mut updated = std::mem::take(&mut self.cache);
            for entry in fresh {
                updated.insert(entry);
            }
            saved = updated.save_with(&self.fs, path).is_ok();
        }
        if saved && !interrupted {
            if let Some(journal) = &self.journal {
                let _ = journal.discard();
            }
        }
        let record = record();
        if let Some(path) = &self.cache_path {
            let line = format!("{}\n", record.to_json());
            let _ = self.fs.append_durable(&pcv_obs::ledger::path_for(path), line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{chip_slice_fingerprint, pruned_fingerprint, NetDigests};
    use crate::{harvest_shard, Engine, EngineConfig, ResidentChip, RunRequest};
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    /// Two coupled victims and their aggressor.
    fn chip() -> ResidentChip {
        let mut db = ParasiticDb::new();
        let mk = |name: &str, cg: f64| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 200.0);
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            n
        };
        let hot = db.add_net(mk("hot", 5e-15));
        let cold = db.add_net(mk("cold", 50e-15));
        let agg = db.add_net(mk("agg", 5e-15));
        for (net, cc) in [(hot, 60e-15), (cold, 0.4e-15)] {
            db.add_coupling(NetNodeRef { net, node: 1 }, NetNodeRef { net: agg, node: 1 }, cc);
        }
        ResidentChip::fixed_resistance(db, 2000.0, vec![cold, hot])
    }

    #[test]
    fn a_record_in_journal_and_cache_is_adopted_once_from_the_journal_by_every_reader() {
        let dir = std::env::temp_dir().join(format!("pcv-store-both-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chip.cache");
        let chip = chip();
        let ctx = chip.ctx();
        let cfg = EngineConfig { workers: 2, cache_path: Some(path.clone()), ..Default::default() };
        let fs = &cfg.fs;
        let (chash, chip_fp) =
            (cfg.config_hash(&ctx), chip_slice_fingerprint(&ctx, chip.victims()));

        // A complete run leaves both victims in the cache and no journal.
        let cold_run = Engine::new(cfg.clone()).run(RunRequest::resident(&chip)).unwrap();
        assert_eq!(cold_run.stats.cache_misses, 2);
        let digests = NetDigests::new(&ctx);
        let keys: Vec<(&str, u64)> = chip
            .victims()
            .iter()
            .map(|&v| {
                let sizes = chip.component_sizes();
                (
                    ctx.db.net(v).name(),
                    pruned_fingerprint(&ctx, v, &cfg.prune, sizes, chash, &digests).1,
                )
            })
            .collect();
        let cached = RunStore::read(fs, Some(&path), chash, chip_fp, true);
        assert_eq!(cached.replayable(), None, "no journal: nothing to replay");
        for &(name, fp) in &keys {
            assert_eq!(cached.adopt(name, fp).map(|(_, s)| s), Some(Source::Cache));
            assert!(cached.adopt(name, fp ^ 1).is_none(), "another fingerprint is a miss");
        }

        // The same records, journaled too — as a run killed between its
        // cache save and its journal discard leaves them.
        let journal = Journal::begin(fs, &Journal::path_for(&path), chash, chip_fp).unwrap();
        for &(name, fp) in &keys {
            journal.record(cached.adopt(name, fp).unwrap().0).unwrap();
        }
        let both = RunStore::read(fs, Some(&path), chash, chip_fp, true);
        assert_eq!(both.replayable(), Some(2));
        for &(name, fp) in &keys {
            assert_eq!(both.adopt(name, fp).map(|(_, s)| s), Some(Source::Journal));
        }
        // Not asked to resume, or resuming under another chip slice: the
        // journal is not read and the cache answers.
        for store in [
            RunStore::read(fs, Some(&path), chash, chip_fp, false),
            RunStore::read(fs, Some(&path), chash, chip_fp ^ 1, true),
        ] {
            assert_eq!(store.replayable(), None);
            assert_eq!(store.adopt(keys[0].0, keys[0].1).map(|(_, s)| s), Some(Source::Cache));
        }

        // The harvest and the run count them alike: once, from the journal.
        let (entries, stat) = harvest_shard(&chip, &cfg, chip.victims(), &path, None);
        assert_eq!(entries.len(), 2);
        assert_eq!((stat.from_journal, stat.from_cache, stat.worst_case), (2, 0, 0));
        let resumed = Engine::new(cfg.clone())
            .run(RunRequest { resume: true, ..RunRequest::resident(&chip) })
            .unwrap();
        let stats = &resumed.stats;
        assert_eq!((stats.journal_hits, stats.cache_hits, stats.cache_misses), (2, 0, 0));
        assert_eq!(resumed.signoff_json(), cold_run.signoff_json());
        assert!(!Journal::path_for(&path).exists(), "a complete, saved run retires the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

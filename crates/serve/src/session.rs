//! Sessions: the daemon-side lifecycle of one resident chip.
//!
//! A session is born from a [`DesignSpec`] posted by a client and walks a
//! linear state machine:
//!
//! ```text
//! Parsed → Elaborated → Ready → Running → Completed
//! ```
//!
//! *Parsed* means the wire payload was understood; *Elaborated* means the
//! expensive one-time work is done (design generated or SPEF parsed,
//! drivers characterized, coupling union-find built — all owned by a
//! [`ResidentChip`]); *Ready* means runs can be submitted. *Running* and
//! *Completed* track the latest run: a session bounces `Ready/Completed →
//! Running → Completed` once per run, paying elaboration exactly once.

use crate::error::ApiError;
use crate::overlay::{float, member, uint};
use pcv_designs::dsp::DspConfig;
use pcv_engine::ResidentChip;
use pcv_netlist::spef::parse_spef;
use pcv_netlist::PNetId;
use pcv_obs::json::{parse, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Which nets of a SPEF upload to audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VictimSel {
    /// Every net in the parasitics.
    All,
    /// Exactly the named nets (unknown names are a [`ApiError::BadRequest`]).
    Named(Vec<String>),
}

/// What a client asks the daemon to keep resident.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSpec {
    /// Generate the paper's DSP-like block and audit its latch-input
    /// victims with the nonlinear cell model — the served twin of the
    /// `dsp_chip_signoff` batch flow.
    Dsp {
        /// Generator configuration (seeded, so the chip is reproducible).
        config: DspConfig,
    },
    /// Parse an uploaded SPEF document and audit with uniform
    /// fixed-resistance drivers.
    Spef {
        /// SPEF text.
        text: String,
        /// Uniform driver resistance in ohms.
        drive_ohms: f64,
        /// Victim selection.
        victims: VictimSel,
    },
}

impl DesignSpec {
    /// Parse the `POST /sessions` body — also the head of a shard worker's
    /// config line. Unknown `kind`s, missing required fields, and members
    /// that are present with the wrong type or range are
    /// [`ApiError::BadRequest`], never a silent default: the daemon (or a
    /// worker) must not elaborate a chip the client did not ask for.
    /// Absent optional members keep their defaults.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] with the offending detail.
    pub fn from_json(body: &str) -> Result<DesignSpec, ApiError> {
        DesignSpec::from_value(&parse_spec(body)?)
    }

    /// [`DesignSpec::from_json`] of a body already parsed.
    pub(crate) fn from_value(doc: &Value) -> Result<DesignSpec, ApiError> {
        let design = doc
            .get("design")
            .ok_or_else(|| ApiError::BadRequest("session spec needs a \"design\" object".into()))?;
        let kind = design
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| ApiError::BadRequest("design needs a string \"kind\"".into()))?;
        match kind {
            "dsp" => {
                let d = DspConfig::default();
                let count = |key: &str| member(design, key, uint);
                let config = DspConfig {
                    n_buses: count("buses")?.unwrap_or(d.n_buses),
                    bus_bits: count("bits")?.unwrap_or(d.bus_bits),
                    n_random_nets: count("random")?.unwrap_or(d.n_random_nets),
                    cycle: positive(design, "cycle")?.unwrap_or(d.cycle),
                    seed: count("seed")?.map_or(d.seed, |s| s as u64),
                };
                if config.n_buses * config.bus_bits + config.n_random_nets == 0 {
                    return Err(ApiError::BadRequest("dsp design generates no nets".into()));
                }
                Ok(DesignSpec::Dsp { config })
            }
            "spef" => {
                let text = design
                    .get("text")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ApiError::BadRequest("spef design needs \"text\"".into()))?
                    .to_owned();
                let drive_ohms = positive(design, "drive_ohms")?.unwrap_or(1000.0);
                let victims = match design.get("victims") {
                    None => VictimSel::All,
                    Some(Value::Str(s)) if s == "all" => VictimSel::All,
                    Some(Value::Arr(items)) => {
                        let mut names = Vec::with_capacity(items.len());
                        for it in items {
                            names.push(
                                it.as_str()
                                    .ok_or_else(|| {
                                        ApiError::BadRequest("victims must be net names".into())
                                    })?
                                    .to_owned(),
                            );
                        }
                        VictimSel::Named(names)
                    }
                    Some(_) => {
                        return Err(ApiError::BadRequest(
                            "victims must be \"all\" or a list of net names".into(),
                        ))
                    }
                };
                Ok(DesignSpec::Spef { text, drive_ohms, victims })
            }
            other => Err(ApiError::BadRequest(format!("unknown design kind {other:?}"))),
        }
    }

    /// Serialize back to the `POST /sessions` wire shape. Round-trips
    /// through [`DesignSpec::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        self.write_members(&mut out);
        out.push('}');
        out
    }

    /// Append `"design":{…}` — the member a spec contributes to the object
    /// that carries it (the caller owns the braces and any members of its
    /// own): the `POST /sessions` body, and the config line the shard
    /// coordinator hands each worker process so it elaborates the
    /// *identical* chip (same net ids, same fingerprints) the daemon holds.
    pub(crate) fn write_members(&self, out: &mut String) {
        use pcv_trace::json::{f64_lit, str_lit};
        match self {
            DesignSpec::Dsp { config } => out.push_str(&format!(
                "\"design\":{{\"kind\":\"dsp\",\"buses\":{},\"bits\":{},\"random\":{},\"cycle\":{},\"seed\":{}}}",
                config.n_buses,
                config.bus_bits,
                config.n_random_nets,
                f64_lit(config.cycle),
                config.seed
            )),
            DesignSpec::Spef { text, drive_ohms, victims } => {
                let victims = match victims {
                    VictimSel::All => "\"all\"".to_owned(),
                    VictimSel::Named(names) => {
                        let items: Vec<String> = names.iter().map(|n| str_lit(n)).collect();
                        format!("[{}]", items.join(","))
                    }
                };
                out.push_str(&format!(
                    "\"design\":{{\"kind\":\"spef\",\"text\":{},\"drive_ohms\":{},\"victims\":{}}}",
                    str_lit(text),
                    f64_lit(*drive_ohms),
                    victims
                ));
            }
        }
    }
}

/// Parse a `POST /sessions` body, or a worker config line, as JSON.
pub(crate) fn parse_spec(body: &str) -> Result<Value, ApiError> {
    parse(body).map_err(|e| ApiError::BadRequest(format!("session spec: {e}")))
}

/// An optional design member that must be a positive number when present.
fn positive(design: &Value, key: &str) -> Result<Option<f64>, ApiError> {
    match member(design, key, float)? {
        Some(x) if !(x.is_finite() && x > 0.0) => {
            Err(ApiError::BadRequest(format!("{key} must be positive")))
        }
        x => Ok(x),
    }
}

/// Do the elaborate-once work for a spec: build the [`ResidentChip`] that
/// every run of the session will borrow. Public so offline tools (tests,
/// the CI smoke diff) can construct the *identical* chip the daemon holds.
///
/// # Errors
///
/// [`ApiError::BadRequest`] for specs referencing nonexistent nets,
/// [`ApiError::Internal`] for elaboration failures.
pub fn elaborate(spec: &DesignSpec) -> Result<ResidentChip, ApiError> {
    match spec {
        DesignSpec::Dsp { config } => ResidentChip::dsp(config)
            .map_err(|e| ApiError::Internal(format!("characterizing driver cells: {e}"))),
        DesignSpec::Spef { text, drive_ohms, victims } => {
            let db =
                parse_spef(text).map_err(|e| ApiError::BadRequest(format!("spef parse: {e}")))?;
            let ids: Vec<PNetId> = match victims {
                VictimSel::All => db.iter().map(|(id, _)| id).collect(),
                VictimSel::Named(names) => {
                    let mut ids = Vec::with_capacity(names.len());
                    for name in names {
                        ids.push(db.find_net(name).ok_or_else(|| {
                            // The typed xtalk error, so the wire mapping
                            // (satellite: BadRequest → 400) is exercised
                            // end to end through From<XtalkError>.
                            ApiError::from(pcv_xtalk::XtalkError::BadRequest {
                                what: format!("no such net {name:?} in uploaded parasitics"),
                            })
                        })?);
                    }
                    ids
                }
            };
            Ok(ResidentChip::fixed_resistance(db, *drive_ohms, ids))
        }
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SessionState {
    /// Spec understood, nothing built yet.
    Parsed,
    /// One-time elaboration finished; bookkeeping still pending.
    Elaborated,
    /// Accepting runs; none in flight and none finished yet.
    Ready,
    /// A run over this session is executing right now.
    Running,
    /// At least one run finished; accepting more.
    Completed,
}

impl SessionState {
    /// Stable lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Parsed => "parsed",
            SessionState::Elaborated => "elaborated",
            SessionState::Ready => "ready",
            SessionState::Running => "running",
            SessionState::Completed => "completed",
        }
    }
}

/// One resident chip plus its lifecycle state and cache location.
///
/// The chip slot is swappable: an ECO patch replaces it with a freshly
/// elaborated chip while the session identity, cache and state survive —
/// that continuity is exactly what makes the next run a warm splice
/// instead of a cold sweep.
#[derive(Debug)]
pub struct Session {
    /// Session id (`s1`, `s2`, ...).
    pub id: String,
    /// The elaborated chip (shared with the executor and query handlers)
    /// and the wire spec it came from (shipped to shard workers). One lock
    /// holds the pair: an ECO replaces both or neither.
    resident: RwLock<(Arc<ResidentChip>, DesignSpec)>,
    /// The engine cache/journal/ledger stem for this session's runs.
    pub cache_path: PathBuf,
    state: Mutex<SessionState>,
}

impl Session {
    /// Build a session: parse already happened (the spec), elaboration
    /// happens here, and the returned session is `Ready`.
    ///
    /// # Errors
    ///
    /// Propagates [`elaborate`] failures.
    pub fn build(
        id: String,
        spec: &DesignSpec,
        data_dir: &std::path::Path,
    ) -> Result<Session, ApiError> {
        let session = Session {
            cache_path: data_dir.join(format!("session-{id}.cache")),
            id,
            resident: RwLock::new((Arc::new(elaborate(spec)?), spec.clone())),
            state: Mutex::new(SessionState::Parsed),
        };
        session.set_state(SessionState::Elaborated);
        session.set_state(SessionState::Ready);
        Ok(session)
    }

    /// The currently resident chip (an `Arc` clone; cheap).
    pub fn chip(&self) -> Arc<ResidentChip> {
        Arc::clone(&self.resident.read().unwrap_or_else(PoisonError::into_inner).0)
    }

    /// The resident chip and the wire spec it was elaborated from (a clone),
    /// read under one lock: the spec re-elaborates to exactly this chip.
    pub fn resident(&self) -> (Arc<ResidentChip>, DesignSpec) {
        self.resident.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Elaborate an edited SPEF document with this session's original
    /// driver resistance and victim selection — the chip an ECO patch
    /// swaps in.
    ///
    /// # Errors
    ///
    /// [`ApiError::Conflict`] for sessions that hold a generated design
    /// (there is no SPEF to patch); [`elaborate`] failures otherwise —
    /// including a [`ApiError::BadRequest`] when the edit removed a net
    /// the session's named victim list still references.
    pub fn elaborate_eco(&self, text: &str) -> Result<ResidentChip, ApiError> {
        // The stored spec says how the upload became a chip; only its
        // text changes. (Copied out: elaboration must not hold the lock.)
        let patched = match &self.resident.read().unwrap_or_else(PoisonError::into_inner).1 {
            DesignSpec::Spef { drive_ohms, victims, .. } => DesignSpec::Spef {
                text: text.to_owned(),
                drive_ohms: *drive_ohms,
                victims: victims.clone(),
            },
            DesignSpec::Dsp { .. } => {
                return Err(ApiError::Conflict(format!(
                    "session {} holds a generated design — only spef sessions accept eco patches",
                    self.id
                )))
            }
        };
        elaborate(&patched)
    }

    /// Swap in the chip an accepted ECO patch elaborated from the SPEF
    /// document `text`, and `text` into the stored spec with it, returning
    /// the chip replaced (the ECO diff's "old" side).
    pub fn swap(&self, next: Arc<ResidentChip>, text: &str) -> Arc<ResidentChip> {
        let mut resident = self.resident.write().unwrap_or_else(PoisonError::into_inner);
        if let DesignSpec::Spef { text: stored, .. } = &mut resident.1 {
            text.clone_into(stored);
        }
        std::mem::replace(&mut resident.0, next)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Move to `next` (states only ever advance or bounce between the two
    /// idle states and `Running`).
    pub fn set_state(&self, next: SessionState) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = next;
    }

    /// The `{"session":...}` info object served for this session.
    pub fn info_json(&self) -> String {
        let mut out = String::from("{");
        self.write_info_members(&mut out);
        out.push('}');
        out
    }

    /// Append the members of [`Session::info_json`]; the caller owns the
    /// braces and any members of its own (`POST /sessions` adds `corr`).
    pub(crate) fn write_info_members(&self, out: &mut String) {
        use pcv_trace::json::str_lit;
        let chip = self.chip();
        out.push_str(&format!(
            "\"session\":{},\"state\":{},\"nets\":{},\"victims\":{}",
            str_lit(&self.id),
            str_lit(self.state().name()),
            chip.num_nets(),
            chip.victims().len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::spef::write_spef;
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    fn small_db() -> ParasiticDb {
        let mut db = ParasiticDb::new();
        let mk = |name: &str, cg: f64| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 150.0);
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            n
        };
        let v = db.add_net(mk("vic", 8e-15));
        let a = db.add_net(mk("agg", 6e-15));
        db.add_coupling(NetNodeRef { net: v, node: 1 }, NetNodeRef { net: a, node: 1 }, 25e-15);
        db
    }

    #[test]
    fn parses_dsp_spec_with_defaults_and_overrides() {
        let spec = DesignSpec::from_json(
            "{\"design\":{\"kind\":\"dsp\",\"buses\":2,\"bits\":4,\"random\":6}}",
        )
        .unwrap();
        match spec {
            DesignSpec::Dsp { config } => {
                assert_eq!(config.n_buses, 2);
                assert_eq!(config.bus_bits, 4);
                assert_eq!(config.n_random_nets, 6);
                assert_eq!(config.seed, DspConfig::default().seed);
            }
            other => panic!("expected dsp, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_specs_as_bad_request() {
        for body in [
            "not json",
            "{}",
            "{\"design\":{\"kind\":\"warp\"}}",
            "{\"design\":{\"kind\":\"spef\"}}",
            "{\"design\":{\"kind\":\"spef\",\"text\":\"x\",\"victims\":7}}",
            "{\"design\":{\"kind\":\"dsp\",\"buses\":0,\"bits\":0,\"random\":0}}",
        ] {
            match DesignSpec::from_json(body) {
                Err(ApiError::BadRequest(_)) => {}
                other => panic!("{body}: expected BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn present_members_of_the_wrong_type_or_range_are_rejected_not_defaulted() {
        // Each of these used to elaborate *some* chip — the default one, a
        // truncated one, a 1000-ohm one — with no error, in the daemon and
        // (through the same reader) in every shard worker.
        for design in [
            "\"kind\":\"dsp\",\"buses\":\"8\"",
            "\"kind\":\"dsp\",\"buses\":null",
            "\"kind\":\"dsp\",\"bits\":2.7",
            "\"kind\":\"dsp\",\"random\":-1",
            "\"kind\":\"dsp\",\"seed\":\"x\"",
            "\"kind\":\"dsp\",\"seed\":18446744073709551615",
            "\"kind\":\"dsp\",\"cycle\":\"10e-9\"",
            "\"kind\":\"dsp\",\"cycle\":-1e-9",
            "\"kind\":\"spef\",\"text\":\"x\",\"drive_ohms\":\"50\"",
            "\"kind\":\"spef\",\"text\":\"x\",\"drive_ohms\":true",
            "\"kind\":\"spef\",\"text\":\"x\",\"drive_ohms\":0",
        ] {
            match DesignSpec::from_json(&format!("{{\"design\":{{{design}}}}}")) {
                Err(ApiError::BadRequest(_)) => {}
                other => panic!("{design}: expected BadRequest, got {other:?}"),
            }
        }
        // Absent members keep their defaults; 2^53 is the largest seed the
        // wire carries exactly, and it is carried.
        let parsed = |design: &str| DesignSpec::from_json(&format!("{{\"design\":{{{design}}}}}"));
        assert_eq!(
            parsed("\"kind\":\"dsp\"").unwrap(),
            DesignSpec::Dsp { config: DspConfig::default() }
        );
        assert_eq!(
            parsed("\"kind\":\"dsp\",\"seed\":9007199254740992").unwrap(),
            DesignSpec::Dsp { config: DspConfig { seed: 1 << 53, ..DspConfig::default() } }
        );
        let spef =
            DesignSpec::Spef { text: "x".into(), drive_ohms: 1000.0, victims: VictimSel::All };
        assert_eq!(parsed("\"kind\":\"spef\",\"text\":\"x\"").unwrap(), spef);
        assert_eq!(DesignSpec::from_json(&spef.to_json()).unwrap(), spef);
    }

    #[test]
    fn spef_session_elaborates_and_walks_states() {
        let text = write_spef(&small_db());
        let spec = DesignSpec::Spef {
            text,
            drive_ohms: 1200.0,
            victims: VictimSel::Named(vec!["vic".into()]),
        };
        let dir = std::env::temp_dir().join(format!("pcv-serve-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Session::build("s1".into(), &spec, &dir).unwrap();
        assert_eq!(s.state(), SessionState::Ready);
        assert_eq!(s.chip().victims().len(), 1);
        assert_eq!(s.chip().num_nets(), 2);
        assert!(s.info_json().contains("\"state\":\"ready\""));
        assert!(s.cache_path.starts_with(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eco_reelaborates_with_the_original_driver_context_and_swaps() {
        let spec = DesignSpec::Spef {
            text: write_spef(&small_db()),
            drive_ohms: 1200.0,
            victims: VictimSel::All,
        };
        let dir = std::env::temp_dir().join(format!("pcv-serve-eco-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Session::build("s1".into(), &spec, &dir).unwrap();

        // Patch: one more net, coupled to nothing.
        let mut db = small_db();
        let mut extra = NetParasitics::new("spare");
        let e1 = extra.add_node();
        extra.add_resistor(0, e1, 80.0);
        extra.add_ground_cap(e1, 3e-15);
        extra.mark_load(e1);
        db.add_net(extra);
        let text = write_spef(&db);
        let patched = s.elaborate_eco(&text).unwrap();
        assert_eq!(patched.num_nets(), 3);
        assert_eq!(patched.victims().len(), 3, "VictimSel::All re-applies to the new netlist");

        let old = s.swap(Arc::new(patched), &text);
        assert_eq!(old.num_nets(), 2);
        assert_eq!(s.chip().num_nets(), 3);
        let patched_spec = DesignSpec::Spef { text, drive_ohms: 1200.0, victims: VictimSel::All };
        assert_eq!(s.resident().1, patched_spec, "the stored spec went with the chip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reader_never_sees_a_new_chip_beside_an_old_spec() {
        // What a sharded run reads at start: the chip the coordinator
        // holds and the spec its workers elaborate. With the two behind
        // separate locks, a read between an ECO's two writes handed the
        // workers the pre-ECO text, and every shard result missed at merge.
        const PATCHES: usize = 40;
        let text_of = |extra: usize| {
            let mut db = small_db();
            for k in 0..extra {
                let mut n = NetParasitics::new(format!("spare{k}"));
                let n1 = n.add_node();
                n.add_resistor(0, n1, 80.0);
                n.add_ground_cap(n1, 3e-15);
                n.mark_load(n1);
                db.add_net(n);
            }
            write_spef(&db)
        };
        let spec =
            DesignSpec::Spef { text: text_of(0), drive_ohms: 1200.0, victims: VictimSel::All };
        let dir = std::env::temp_dir().join(format!("pcv-serve-pair-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Session::build("s1".into(), &spec, &dir).unwrap();
        let patches: Vec<(Arc<ResidentChip>, String)> = (1..=PATCHES)
            .map(|extra| {
                let text = text_of(extra);
                (Arc::new(s.elaborate_eco(&text).unwrap()), text)
            })
            .collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut reads = 0usize;
                while !done.load(std::sync::atomic::Ordering::Acquire) || reads == 0 {
                    let (chip, spec) = s.resident();
                    let DesignSpec::Spef { text, .. } = spec else { panic!("a spef session") };
                    let nets = parse_spef(&text).unwrap().num_nets();
                    assert_eq!(chip.num_nets(), nets, "chip and spec of two different patches");
                    reads += 1;
                }
                reads
            });
            for (chip, text) in &patches {
                s.swap(Arc::clone(chip), text);
                std::thread::yield_now();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
            reader.join().expect("reader")
        });
        assert!(reads > 0);
        assert_eq!(s.chip().num_nets(), 2 + PATCHES);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eco_on_a_generated_design_is_a_conflict() {
        let spec = DesignSpec::from_json(
            "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0}}",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("pcv-serve-eco-dsp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Session::build("s9".into(), &spec, &dir).unwrap();
        match s.elaborate_eco("*SPEF pcv-lite 1.0\n") {
            Err(ApiError::Conflict(m)) => assert!(m.contains("generated design"), "{m}"),
            other => panic!("expected Conflict, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_victim_is_a_typed_bad_request() {
        let text = write_spef(&small_db());
        let spec = DesignSpec::Spef {
            text,
            drive_ohms: 1200.0,
            victims: VictimSel::Named(vec!["ghost".into()]),
        };
        match elaborate(&spec) {
            Err(ApiError::BadRequest(m)) => assert!(m.contains("ghost"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
}

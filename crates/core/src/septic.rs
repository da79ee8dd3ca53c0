//! The SEPTIC mechanism: the **QS&QM manager** orchestrating the ID
//! generator, attack detector, plugins and logger behind the DBMS's
//! pre-execution hook.
//!
//! Pipeline per query (Figure 1): receive the validated query → extract the
//! query structure (QS) → generate the query ID → look up the query model
//! (QM) → either learn (training / incremental) or detect (SQLI + stored
//! injection) → log → proceed or drop.
//!
//! From the server, the first four steps are one walk: the QS is checked
//! while it is lowered (`check::Check`), and an item stack is built only
//! when the query is to be learned or explained.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use septic_dbms::{
    for_each_write_literal, write_data, FailurePolicy, GuardDecision, ParsedQuery, QueryContext,
    QueryGuard,
};
use septic_sql::items;
use septic_telemetry::{Counter, Histogram, Laps, MetricsRegistry, MetricsSnapshot};
use septic_vm::{run_model, Verdict};

use crate::check::{Check, Resolved};
use crate::detector::{detect_sqli_structural_only, outcome_of, SqliOutcome};
use crate::id::{IdGenerator, QueryId};
use crate::logger::{AttackAction, EventKind, Logger};
use crate::mode::{Mode, ModeActions};
use crate::model::QueryModel;
use crate::plugins::{default_plugins, scan_input, scan_inputs, Plugin, StoredAttack};
use crate::store::{self, CompiledModel, LoadReport, Lookup, ModelStore};

/// Which detectors are enabled — the four combinations benchmarked in
/// Figure 5 (`NN`, `YN`, `NY`, `YY`; first letter = SQLI, second = stored
/// injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionConfig {
    /// SQLI detection on/off.
    pub sqli: bool,
    /// Stored-injection detection on/off.
    pub stored: bool,
}

impl DetectionConfig {
    /// Both detectors off (`NN`).
    pub const NN: DetectionConfig = DetectionConfig {
        sqli: false,
        stored: false,
    };
    /// SQLI only (`YN`).
    pub const YN: DetectionConfig = DetectionConfig {
        sqli: true,
        stored: false,
    };
    /// Stored injection only (`NY`).
    pub const NY: DetectionConfig = DetectionConfig {
        sqli: false,
        stored: true,
    };
    /// Both detectors on (`YY`).
    pub const YY: DetectionConfig = DetectionConfig {
        sqli: true,
        stored: true,
    };

    /// The paper's two-letter label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match (self.sqli, self.stored) {
            (false, false) => "NN",
            (true, false) => "YN",
            (false, true) => "NY",
            (true, true) => "YY",
        }
    }

    /// All four combinations, in the paper's order.
    #[must_use]
    pub fn all() -> [DetectionConfig; 4] {
        [Self::NN, Self::YN, Self::NY, Self::YY]
    }
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig::YY
    }
}

/// Every per-query tunable in one `Copy` snapshot: operation mode,
/// detector switches and the detector ablation flag. [`Septic::inspect`]
/// reads it with **one** lock acquisition per query; setters swap the
/// relevant field under the single write lock. The failure policy is not
/// a setting: it is the mode's (see [`ModeActions::failure_policy`]).
#[derive(Debug, Clone, Copy)]
struct EngineConfig {
    /// Operation mode (training / prevention / detection).
    mode: Mode,
    /// Which detectors are enabled (the Figure 5 ablation switch).
    detection: DetectionConfig,
    /// Ablation: restrict the SQLI detector to step 1 (structural only).
    structural_only: bool,
}

/// Monotone counters exposed for the benchmarks and the status display.
///
/// Each field is a handle into the [`MetricsRegistry`] owned by
/// [`Septic`], resolved once at construction so the query hot path
/// records lock-free. The same values therefore show up in
/// [`Septic::counters`], [`Septic::metrics_snapshot`] and the
/// Prometheus export — one source of truth.
#[derive(Debug)]
pub struct Counters {
    pub queries_seen: Arc<Counter>,
    pub models_created: Arc<Counter>,
    pub models_found: Arc<Counter>,
    pub sqli_detected: Arc<Counter>,
    pub stored_detected: Arc<Counter>,
    /// All flagged attacks (SQLI + stored), regardless of the mode's
    /// drop/log action — the one number an operator trusts
    /// (`septic_attacks_total`).
    pub attacks_detected: Arc<Counter>,
    pub queries_dropped: Arc<Counter>,
    /// Store loads that had to recover from a corrupt or missing snapshot.
    pub store_recoveries: Arc<Counter>,
    /// Events evicted from the bounded logger (mirror of
    /// [`Logger::dropped`]).
    pub log_drops: Arc<Counter>,
    /// SQLI detections on queries whose stacks carry `JOIN_ITEM` nodes —
    /// JOIN-clause piggybacking and friends. A query exercising several
    /// construct families counts in each.
    pub join_attacks: Arc<Counter>,
    /// SQLI detections on queries with `GROUP_FIELD`/`HAVING_ITEM` nodes.
    pub group_by_attacks: Arc<Counter>,
    /// SQLI detections on queries with `SUBSELECT_BEGIN` brackets.
    pub subquery_attacks: Arc<Counter>,
    /// Values recovered from durable storage and re-scanned after a
    /// restart ([`Septic::scan_stored`](septic_dbms::QueryGuard::scan_stored)).
    pub recovered_values: Arc<Counter>,
    /// Recovered values a stored-injection plugin flagged — payloads that
    /// were written to disk before this deployment existed.
    pub recovered_flagged: Arc<Counter>,
}

impl Counters {
    fn register(registry: &MetricsRegistry) -> Self {
        Counters {
            queries_seen: registry.counter("septic_queries_total"),
            models_created: registry.counter("septic_models_created_total"),
            models_found: registry.counter("septic_models_found_total"),
            sqli_detected: registry.counter("septic_sqli_detected_total"),
            stored_detected: registry.counter("septic_stored_detected_total"),
            attacks_detected: registry.counter("septic_attacks_total"),
            queries_dropped: registry.counter("septic_queries_dropped_total"),
            store_recoveries: registry.counter("septic_store_recoveries_total"),
            log_drops: registry.counter("septic_log_drops_total"),
            join_attacks: registry.counter("septic_join_attacks_total"),
            group_by_attacks: registry.counter("septic_group_by_attacks_total"),
            subquery_attacks: registry.counter("septic_subquery_attacks_total"),
            recovered_values: registry.counter("septic_recovered_values_total"),
            recovered_flagged: registry.counter("septic_recovered_flagged_total"),
        }
    }
}

/// Per-stage latency histograms for the query path, resolved once from
/// the registry (`septic_stage_duration_microseconds{stage="..."}`).
#[derive(Debug)]
struct StageTimers {
    inspect: Arc<Histogram>,
    id_gen: Arc<Histogram>,
    store_get: Arc<Histogram>,
    sqli_detect: Arc<Histogram>,
    stored_scan: Arc<Histogram>,
    store_save: Arc<Histogram>,
}

impl StageTimers {
    fn register(registry: &MetricsRegistry) -> Self {
        let stage = |name: &str| {
            registry.histogram(&format!(
                "septic_stage_duration_microseconds{{stage=\"{name}\"}}"
            ))
        };
        StageTimers {
            inspect: stage("inspect"),
            id_gen: stage("id_gen"),
            store_get: stage("store_get"),
            sqli_detect: stage("sqli_detect"),
            stored_scan: stage("stored_scan"),
            store_save: stage("store_save"),
        }
    }
}

/// A point-in-time snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    pub queries_seen: u64,
    pub models_created: u64,
    pub models_found: u64,
    pub sqli_detected: u64,
    pub stored_detected: u64,
    pub attacks_detected: u64,
    pub queries_dropped: u64,
    pub store_recoveries: u64,
    pub log_drops: u64,
    pub join_attacks: u64,
    pub group_by_attacks: u64,
    pub subquery_attacks: u64,
    pub recovered_values: u64,
    pub recovered_flagged: u64,
}

/// The SEPTIC mechanism. Install on a [`septic_dbms::Server`] with
/// `server.install_guard(septic)`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use septic::{Mode, Septic};
/// use septic_dbms::Server;
///
/// let server = Server::new();
/// let conn = server.connect();
/// conn.execute("CREATE TABLE t (a VARCHAR(20))")?;
///
/// let septic = Arc::new(Septic::new());
/// server.install_guard(septic.clone());
///
/// // Train, then prevent.
/// septic.set_mode(Mode::Training);
/// conn.execute("SELECT * FROM t WHERE a = 'benign'")?;
/// septic.set_mode(Mode::PREVENTION);
///
/// // The learned shape passes; the tautology is dropped.
/// assert!(conn.execute("SELECT * FROM t WHERE a = 'other'").is_ok());
/// assert!(conn.execute("SELECT * FROM t WHERE a = '' OR 1=1").is_err());
/// # Ok::<(), septic_dbms::DbError>(())
/// ```
pub struct Septic {
    /// All per-query tunables in one snapshot: one read per query.
    engine: RwLock<EngineConfig>,
    /// Interior-mutable (atomic flag + interner), so no outer lock.
    id_generator: IdGenerator,
    store: ModelStore,
    plugins: Vec<Box<dyn Plugin>>,
    logger: Logger,
    /// Registry behind `counters`/`stages`; the source for snapshots
    /// and the Prometheus export.
    metrics: MetricsRegistry,
    counters: Counters,
    stages: StageTimers,
}

impl Default for Septic {
    fn default() -> Self {
        Self::new()
    }
}

impl Septic {
    /// Creates SEPTIC in training mode with all detectors enabled and the
    /// default plugin set.
    #[must_use]
    pub fn new() -> Self {
        let metrics = MetricsRegistry::new();
        let counters = Counters::register(&metrics);
        let stages = StageTimers::register(&metrics);
        let store = ModelStore::new();
        store.attach_vm_metrics(&metrics);
        Septic {
            engine: RwLock::new(EngineConfig {
                mode: Mode::Training,
                detection: DetectionConfig::YY,
                structural_only: false,
            }),
            id_generator: IdGenerator::new(),
            store,
            plugins: default_plugins(),
            logger: Logger::default(),
            metrics,
            counters,
            stages,
        }
    }

    /// Creates SEPTIC with an explicit detector configuration.
    #[must_use]
    pub fn with_config(config: DetectionConfig) -> Self {
        let s = Self::new();
        s.engine.write().detection = config;
        s
    }

    /// Current operation mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.engine.read().mode
    }

    /// Switches the operation mode (logged, as the demo's status display
    /// shows).
    pub fn set_mode(&self, mode: Mode) {
        let mut engine = self.engine.write();
        if engine.mode != mode {
            self.log_event(EventKind::ModeChanged {
                from: engine.mode,
                to: mode,
            });
            engine.mode = mode;
        }
    }

    /// Current detector configuration.
    #[must_use]
    pub fn config(&self) -> DetectionConfig {
        self.engine.read().detection
    }

    /// Replaces the detector configuration (the Figure 5 switch).
    pub fn set_config(&self, config: DetectionConfig) {
        self.engine.write().detection = config;
    }

    /// Enables/disables use of external identifiers (ablation switch).
    pub fn set_use_external_ids(&self, on: bool) {
        self.id_generator.set_use_external(on);
    }

    /// Ablation switch: restrict the SQLI detector to step 1 (structural
    /// verification only) — quantifies what the syntactic step adds.
    pub fn set_structural_only(&self, on: bool) {
        self.engine.write().structural_only = on;
    }

    /// Adds a stored-injection plugin to the scan chain.
    pub fn add_plugin(&mut self, plugin: Box<dyn Plugin>) {
        self.plugins.push(plugin);
    }

    /// Starts journaling store mutations next to `path` (see
    /// [`ModelStore::attach_persistence`]): models learned incrementally
    /// between checkpoints survive a crash. Call it after
    /// [`Septic::load_models`] when state already exists at `path`.
    ///
    /// # Errors
    ///
    /// When the directory of `path` cannot be created.
    pub fn attach_persistence(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let (io, file) = store::open_fs(path.as_ref())?;
        self.store.attach_persistence(io, file);
        Ok(())
    }

    /// The learned-model store.
    #[must_use]
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// The event register.
    #[must_use]
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            queries_seen: self.counters.queries_seen.get(),
            models_created: self.counters.models_created.get(),
            models_found: self.counters.models_found.get(),
            sqli_detected: self.counters.sqli_detected.get(),
            stored_detected: self.counters.stored_detected.get(),
            attacks_detected: self.counters.attacks_detected.get(),
            queries_dropped: self.counters.queries_dropped.get(),
            store_recoveries: self.counters.store_recoveries.get(),
            log_drops: self.counters.log_drops.get(),
            join_attacks: self.counters.join_attacks.get(),
            group_by_attacks: self.counters.group_by_attacks.get(),
            subquery_attacks: self.counters.subquery_attacks.get(),
            recovered_values: self.counters.recovered_values.get(),
            recovered_flagged: self.counters.recovered_flagged.get(),
        }
    }

    /// The telemetry registry behind SEPTIC's counters and per-stage
    /// latency histograms. Hot-path handles are resolved once at
    /// construction; the registry itself is only locked by snapshots.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Point-in-time copy of every SEPTIC metric — counters
    /// (`septic_*_total`) and stage histograms
    /// (`septic_stage_duration_microseconds{stage="..."}`).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The metrics in Prometheus text exposition format.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// Persists the learned models ("stored persistently").
    ///
    /// # Errors
    ///
    /// I/O or serialization failures.
    pub fn save_models(&self, path: &Path) -> io::Result<()> {
        let t = Instant::now();
        let res = self.store.save_to(path);
        self.stages.store_save.record(t.elapsed());
        res
    }

    /// Loads persisted models, replacing the in-memory set, and logs the
    /// event (the demo restarts MySQL and reloads models before phase D).
    /// A corrupt snapshot is quarantined and recovered from, not an error
    /// — the [`LoadReport`] says what happened, and recoveries are
    /// counted.
    ///
    /// # Errors
    ///
    /// Only when there is nothing at all to load (see
    /// [`ModelStore::load_from`]).
    pub fn load_models(&self, path: &Path) -> io::Result<LoadReport> {
        let report = self.store.load_from(path)?;
        if report.recovered {
            Self::bump(&self.counters.store_recoveries);
        }
        self.log_event(EventKind::StoreLoaded {
            count: self.store.len(),
        });
        Ok(report)
    }

    /// Identifiers of incrementally-learned models awaiting administrator
    /// review (Section II-E).
    #[must_use]
    pub fn pending_review(&self) -> Vec<crate::QueryId> {
        self.store.pending_review()
    }

    /// Administrator verdict: the reviewed model is benign and becomes
    /// permanent.
    pub fn approve_model(&self, id: &crate::QueryId) -> bool {
        self.store.approve(id)
    }

    /// Administrator verdict: the reviewed model was learned from a
    /// malicious query; it is removed and the identifier refused from now
    /// on.
    pub fn reject_model(&self, id: &crate::QueryId) -> bool {
        self.store.reject(id)
    }

    /// Renders the "SEPTIC status" display of the demo setup (Figure 7):
    /// mode, detector switches, model counts and counters.
    #[must_use]
    pub fn status_report(&self) -> String {
        let counters = self.counters();
        let pending = self.store.pending_review();
        let mut out = String::new();
        out.push_str("SEPTIC status\n");
        out.push_str(&format!("  mode            : {}\n", self.mode()));
        out.push_str(&format!(
            "  detectors       : {} (SQLI={}, stored={})\n",
            self.config().label(),
            self.config().sqli,
            self.config().stored
        ));
        out.push_str(&format!("  models learned  : {}\n", self.store.len()));
        out.push_str(&format!("  pending review  : {}\n", pending.len()));
        out.push_str(&format!("  queries seen    : {}\n", counters.queries_seen));
        out.push_str(&format!("  SQLI detected   : {}\n", counters.sqli_detected));
        out.push_str(&format!(
            "  stored detected : {}\n",
            counters.stored_detected
        ));
        out.push_str(&format!(
            "  attacks total   : {}\n",
            counters.attacks_detected
        ));
        out.push_str(&format!(
            "  by construct    : join={} group_by={} subquery={}\n",
            counters.join_attacks, counters.group_by_attacks, counters.subquery_attacks
        ));
        out.push_str(&format!(
            "  queries dropped : {}\n",
            counters.queries_dropped
        ));
        out.push_str(&format!("  failure policy  : {}\n", self.failure_policy()));
        out.push_str(&format!(
            "  store recoveries: {}\n",
            counters.store_recoveries
        ));
        out.push_str(&format!(
            "  recovered scan  : {} values, {} flagged\n",
            counters.recovered_values, counters.recovered_flagged
        ));
        out.push_str(&format!("  log drops       : {}\n", counters.log_drops));
        out
    }

    fn bump(counter: &Counter) {
        counter.inc();
    }

    /// Records an incident, mirroring the logger's eviction count into the
    /// `log_drops` counter so degradation shows up in snapshots.
    fn log_event(&self, kind: EventKind) {
        self.logger.record(kind);
        self.counters.log_drops.set(self.logger.dropped());
    }

    /// The detection half of [`Septic::inspect`]: SQLI + stored-injection
    /// scans over a known model. `compared` is the compiled program's
    /// verdict when [`Check`] already ran it over this structure. Returns
    /// the block decision, if any; each stage that runs is timed on `laps`.
    fn run_detectors(
        &self,
        ctx: &QueryContext<'_>,
        compiled: &CompiledModel,
        compared: Option<Verdict>,
        id: &QueryId,
        engine: &EngineConfig,
        laps: &mut Laps,
    ) -> Option<GuardDecision> {
        let actions = ModeActions::for_mode(engine.mode);
        let qs = ctx.stack;
        let model: &QueryModel = compiled.model();
        let config = engine.detection;
        let action = attack_action(actions);

        // SQLI detection (structural + syntactic; optionally step 1 only
        // for the detector ablation), compared through the model's
        // compiled program.
        if config.sqli && actions.detect_sqli {
            let outcome = if engine.structural_only {
                detect_sqli_structural_only(qs, model)
            } else {
                let verdict = compared.unwrap_or_else(|| run_model(compiled.program(), qs.items()));
                outcome_of(verdict, qs, model)
            };
            self.stages.sqli_detect.record(laps.lap());
            if let SqliOutcome::Attack(kind) = outcome {
                Self::bump(&self.counters.sqli_detected);
                Self::bump(&self.counters.attacks_detected);
                // Attribute the detection to the construct families the
                // offending stack exercises, so the observability layer can
                // say which part of the SQL surface is under attack.
                let profile = qs.construct_profile();
                if profile.join {
                    Self::bump(&self.counters.join_attacks);
                }
                if profile.group_by {
                    Self::bump(&self.counters.group_by_attacks);
                }
                if profile.subquery {
                    Self::bump(&self.counters.subquery_attacks);
                }
                self.log_event(EventKind::SqliDetected {
                    id: id.clone(),
                    kind: kind.clone(),
                    action,
                    query: ctx.decoded_sql.to_string(),
                });
                if actions.drop_on_attack {
                    Self::bump(&self.counters.queries_dropped);
                    return Some(GuardDecision::Block(format!("SQLI [{kind}] id={id}")));
                }
            }
        }

        // Stored-injection detection over INSERT/UPDATE user data.
        if config.stored && actions.detect_stored && !ctx.write_data.is_empty() {
            let found = scan_inputs(&self.plugins, ctx.write_data);
            return self.stored_verdict(found, id, ctx.decoded_sql, actions, laps);
        }

        None
    }

    /// The stored-injection stage, once the plugins have scanned the write
    /// data and `found` is their first finding: times the stage, and counts,
    /// logs and (when the mode drops attacks) blocks a finding.
    fn stored_verdict(
        &self,
        found: Option<StoredAttack>,
        id: &QueryId,
        query: &str,
        actions: ModeActions,
        laps: &mut Laps,
    ) -> Option<GuardDecision> {
        self.stages.stored_scan.record(laps.lap());
        let found = found?;
        Self::bump(&self.counters.stored_detected);
        Self::bump(&self.counters.attacks_detected);
        let action = attack_action(actions);
        self.log_event(EventKind::StoredDetected {
            id: id.clone(),
            attack: found.clone(),
            action,
            query: query.to_string(),
        });
        if !actions.drop_on_attack {
            return None;
        }
        Self::bump(&self.counters.queries_dropped);
        Some(GuardDecision::Block(format!(
            "stored injection [{found}] id={id}"
        )))
    }

    /// SEPTIC's hot path, for a query [`Check`] found clean: known, not
    /// rejected and matched node for node. Counts and times it as
    /// [`Septic::inspect_timed`] would, then runs the stored-injection
    /// stage over the write literals borrowed from the statements.
    fn proceed_checked(
        &self,
        query: &ParsedQuery<'_>,
        checked: &Resolved<'_>,
        engine: &EngineConfig,
        laps: &mut Laps,
    ) -> GuardDecision {
        let actions = ModeActions::for_mode(engine.mode);
        Self::bump(&self.counters.queries_seen);
        self.stages.id_gen.record(checked.id_gen);
        self.stages.store_get.record(checked.store_get);
        Self::bump(&self.counters.models_found);
        if engine.detection.sqli && actions.detect_sqli {
            self.stages.sqli_detect.record(laps.lap());
        }
        if engine.detection.stored && actions.detect_stored {
            let (mut written, mut attack) = (false, None);
            for_each_write_literal(query.statements, |input| {
                written = true;
                if attack.is_none() {
                    attack = scan_input(&self.plugins, input);
                }
            });
            if written {
                let id = checked.id(&self.id_generator);
                if let Some(block) =
                    self.stored_verdict(attack, &id, query.decoded_sql, actions, laps)
                {
                    return block;
                }
            }
        }
        GuardDecision::Proceed
    }
}

/// How the mode treats a flagged query, for its event.
fn attack_action(actions: ModeActions) -> AttackAction {
    if actions.drop_on_attack {
        AttackAction::Dropped
    } else {
        AttackAction::LoggedOnly
    }
}

impl QueryGuard for Septic {
    fn inspect(&self, ctx: &QueryContext<'_>) -> GuardDecision {
        let mut laps = Laps::start();
        let engine = *self.engine.read();
        let decision = self.inspect_timed(ctx, &engine, &mut laps);
        laps.lap();
        self.stages.inspect.record(laps.total());
        decision
    }

    /// The server's entry: the QS is checked while it is lowered
    /// (`check::Check`), and a clean query is decided without a stack
    /// (`Septic::proceed_checked`). Any other query is decided over the
    /// built stack by the code that decides it in [`Septic::inspect`]:
    /// after the lookup the check made, or from the start when it formed
    /// no identifier (a head-less query) or did not run (training, the
    /// structural-only ablation). The stages continue the server's laps;
    /// the `inspect` stage ends at the last of them.
    fn inspect_parsed(&self, query: &ParsedQuery<'_>, laps: &mut Laps) -> GuardDecision {
        let begin = laps.last();
        let engine = *self.engine.read();
        let actions = ModeActions::for_mode(engine.mode);
        let checked = if actions.qm_training || engine.structural_only {
            None
        } else {
            let sqli = engine.detection.sqli && actions.detect_sqli;
            let mut check = Check::new(&self.store, &self.id_generator, query.comments, sqli, laps);
            items::lower_into(query.statements, &mut check);
            check.finish()
        };
        let decision = match checked {
            Some(checked) if checked.clean() => {
                self.proceed_checked(query, &checked, &engine, laps)
            }
            Some(checked) => {
                let stack = items::lower_counted(query.statements, checked.nodes);
                let write_data = write_data(query.statements);
                let ctx = query.context(&stack, &write_data);
                Self::bump(&self.counters.queries_seen);
                self.stages.id_gen.record(checked.id_gen);
                self.stages.store_get.record(checked.store_get);
                let id = checked.id(&self.id_generator);
                self.decide(&ctx, id, checked.lookup, checked.verdict, &engine, laps)
            }
            None => {
                let stack = items::lower_all(query.statements);
                let write_data = write_data(query.statements);
                self.inspect_timed(&query.context(&stack, &write_data), &engine, laps)
            }
        };
        self.stages.inspect.record(laps.last() - begin);
        decision
    }

    fn name(&self) -> &str {
        "septic"
    }

    /// The mode's: fail-closed exactly when the mode drops attacks.
    fn failure_policy(&self) -> FailurePolicy {
        ModeActions::for_mode(self.mode()).failure_policy()
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.metrics_snapshot())
    }

    /// Post-recovery re-detection: runs every recovered string cell
    /// through the stored-injection plugin chain, exactly as if it were
    /// arriving write data. Payloads stored *before* this SEPTIC
    /// deployment existed (or before a restart) are flagged here —
    /// second-order attacks do not get amnesty from a reboot.
    ///
    /// Honours the stored-injection ablation switch: with
    /// `detection.stored` off (NN/YN) the scan is a no-op, keeping the
    /// Figure 5 defense configurations coherent across restarts. A
    /// panicking plugin is contained by the server, one value at a time.
    fn scan_stored(&self, values: &[String]) -> usize {
        if !self.engine.read().detection.stored {
            return 0;
        }
        let mut flagged = 0;
        for value in values {
            self.counters.recovered_values.inc();
            if let Some(attack) = scan_inputs(&self.plugins, std::slice::from_ref(value)) {
                flagged += 1;
                Self::bump(&self.counters.recovered_flagged);
                self.log_event(EventKind::RecoveredDataFlagged {
                    attack,
                    value: value.clone(),
                });
            }
        }
        flagged
    }
}

impl Septic {
    /// The body of [`Septic::inspect`], with per-stage timing threaded
    /// through: each stage ends at one clock read, which starts the next.
    /// The verdict depends on the mode, the detectors, the models and the
    /// query alone, never on how long a stage took.
    fn inspect_timed(
        &self,
        ctx: &QueryContext<'_>,
        engine: &EngineConfig,
        laps: &mut Laps,
    ) -> GuardDecision {
        Self::bump(&self.counters.queries_seen);
        let actions = ModeActions::for_mode(engine.mode);

        // QS&QM manager: QS is the validated item stack; ask the ID
        // generator for the query identifier (no lock: the generator is
        // interior-mutable, external ids are interned `Arc<str>`s).
        let qs = ctx.stack;
        let id = self.id_generator.generate(qs, ctx.comments);
        self.stages.id_gen.record(laps.lap());

        if actions.qm_training {
            // Training mode: learn; the query executes normally.
            let model = QueryModel::from_structure(qs);
            if self.store.learn(id.clone(), model) {
                Self::bump(&self.counters.models_created);
                self.log_event(EventKind::ModelCreated {
                    id,
                    incremental: false,
                });
            }
            return GuardDecision::Proceed;
        }

        // One read lock: rejection and the model (with its compiled
        // comparison program, `Arc` refcount bumps, never a deep clone).
        let found = self.store.lookup(&id);
        self.stages.store_get.record(laps.lap());
        self.decide(ctx, id, found, None, engine, laps)
    }

    /// What follows the lookup outside training: refuses a rejected
    /// identifier, learns an unknown one incrementally, and runs the
    /// detectors over a known one (see [`Septic::run_detectors`] for
    /// `compared`).
    fn decide(
        &self,
        ctx: &QueryContext<'_>,
        id: QueryId,
        found: Lookup,
        compared: Option<Verdict>,
        engine: &EngineConfig,
        laps: &mut Laps,
    ) -> GuardDecision {
        let compiled = match found {
            Lookup::Known(compiled) => Some(compiled),
            Lookup::Unknown => None,
            // Identifiers the administrator rejected are refused outright
            // instead of being re-learned.
            Lookup::Rejected => {
                Self::bump(&self.counters.queries_dropped);
                let reason = format!("query id {id} rejected by administrator");
                self.log_event(EventKind::RejectedQueryRefused {
                    id,
                    query: ctx.decoded_sql.to_string(),
                });
                return GuardDecision::Block(reason);
            }
        };

        // Normal mode: a miss is learned incrementally (into quarantine,
        // pending administrator review — Section II-E).
        let Some(compiled) = compiled else {
            let model = QueryModel::from_structure(ctx.stack);
            self.store.learn_provisional(id.clone(), model);
            Self::bump(&self.counters.models_created);
            self.log_event(EventKind::ModelCreated {
                id,
                incremental: true,
            });
            // The administrator later decides whether the new model came
            // from a benign query (Section II-E); the query proceeds.
            return GuardDecision::Proceed;
        };
        Self::bump(&self.counters.models_found);

        // A detector or plugin that panics is not caught here: the server
        // contains it and the mode's failure policy decides the query, as
        // for any guard failure.
        self.run_detectors(ctx, &compiled, compared, &id, engine, laps)
            .unwrap_or(GuardDecision::Proceed)
    }
}

impl std::fmt::Debug for Septic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Septic")
            .field("mode", &self.mode())
            .field("config", &self.config().label())
            .field("models", &self.store.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use septic_dbms::{DbError, Server};

    fn deployed() -> (
        Arc<septic_dbms::Server>,
        septic_dbms::Connection,
        Arc<Septic>,
    ) {
        let server = Server::new();
        let conn = server.connect();
        conn.execute(
            "CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT, note VARCHAR(200))",
        )
        .unwrap();
        conn.execute(
            "INSERT INTO tickets (reservID, creditCard, note) VALUES ('ID34FG', 1234, '')",
        )
        .unwrap();
        let septic = Arc::new(Septic::new());
        server.install_guard(septic.clone());
        (server, conn, septic)
    }

    const BENIGN: &str = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234";

    #[test]
    fn training_then_prevention_blocks_structural_attack() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute(BENIGN).unwrap();
        septic.set_mode(Mode::PREVENTION);
        // Benign re-run with different data: fine.
        conn.execute("SELECT * FROM tickets WHERE reservID = 'ZZ' AND creditCard = 9")
            .unwrap();
        // Second-order shape (comment swallowed the tail): blocked.
        let err = conn
            .execute("SELECT * FROM tickets WHERE reservID = 'ID34FG'-- ' AND creditCard = 0")
            .unwrap_err();
        assert!(matches!(err, DbError::Blocked(_)));
        let snap = septic.counters();
        assert_eq!(snap.sqli_detected, 1);
        assert_eq!(snap.queries_dropped, 1);
    }

    #[test]
    fn detection_mode_logs_but_executes() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute(BENIGN).unwrap();
        septic.set_mode(Mode::DETECTION);
        let res =
            conn.execute("SELECT * FROM tickets WHERE reservID = '' OR 1=1-- ' AND creditCard = 0");
        assert!(res.is_ok(), "detection mode must not drop");
        assert_eq!(septic.counters().sqli_detected, 1);
        assert_eq!(septic.counters().queries_dropped, 0);
    }

    #[test]
    fn construct_counters_attribute_detections() {
        let (_s, conn, septic) = deployed();
        conn.execute("CREATE TABLE devices (name VARCHAR(16), owner VARCHAR(32))")
            .unwrap();
        conn.execute("INSERT INTO devices (name, owner) VALUES ('dev-1', 'ann')")
            .unwrap();
        septic.set_mode(Mode::Training);
        conn.execute(
            "SELECT t.reservID, d.owner FROM tickets t JOIN devices d \
             ON t.reservID = d.name WHERE d.owner = 'ann'",
        )
        .unwrap();
        conn.execute(
            "SELECT reservID, COUNT(*) FROM tickets GROUP BY reservID HAVING COUNT(*) > 1",
        )
        .unwrap();
        conn.execute(
            "SELECT reservID FROM tickets WHERE reservID IN \
             (SELECT name FROM devices WHERE owner = 'ann')",
        )
        .unwrap();
        septic.set_mode(Mode::DETECTION);
        conn.execute(
            "SELECT t.reservID, d.owner FROM tickets t JOIN devices d \
             ON t.reservID = d.name WHERE d.owner = '' OR 1=1-- '",
        )
        .unwrap();
        conn.execute(
            "SELECT reservID, COUNT(*) FROM tickets GROUP BY reservID \
             HAVING COUNT(*) > 1 OR 2 = 2",
        )
        .unwrap();
        conn.execute(
            "SELECT reservID FROM tickets WHERE reservID IN \
             (SELECT name FROM devices WHERE owner = '') OR 1=1-- '",
        )
        .unwrap();
        let snap = septic.counters();
        assert_eq!(snap.sqli_detected, 3);
        assert_eq!(snap.join_attacks, 1);
        assert_eq!(snap.group_by_attacks, 1);
        assert_eq!(snap.subquery_attacks, 1);
        let report = septic.status_report();
        assert!(
            report.contains("by construct    : join=1 group_by=1 subquery=1"),
            "{report}"
        );
    }

    #[test]
    fn training_is_idempotent_per_query_shape() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute(BENIGN).unwrap();
        conn.execute(BENIGN).unwrap();
        conn.execute("SELECT * FROM tickets WHERE reservID = 'OTHER' AND creditCard = 5")
            .unwrap();
        // One model for the shape, despite three queries.
        assert_eq!(septic.counters().models_created, 1);
        let created = septic
            .logger()
            .events_where(|k| matches!(k, EventKind::ModelCreated { .. }));
        assert_eq!(created.len(), 1);
    }

    /// The streamed check compares the head too: a model stored under the
    /// query's identifier whose head differs (a hash collision, a planted
    /// store) is a mimicry, not a match.
    #[test]
    fn a_matching_id_is_no_proof_that_the_head_matches() {
        let (_s, conn, septic) = deployed();
        let stack = |sql: &str| items::lower_all(&septic_sql::parse(sql).unwrap().statements);
        let query = "SELECT note FROM tickets WHERE creditCard = 1";
        let id = septic.id_generator.generate(&stack(query), &[]);
        let other =
            QueryModel::from_structure(&stack("SELECT reservID FROM tickets WHERE creditCard = 2"));
        assert!(septic.store.learn(id, other));
        septic.set_mode(Mode::PREVENTION);
        let err = conn.execute(query).unwrap_err();
        assert!(
            matches!(&err, DbError::Blocked(reason) if reason.contains("node 1 expected")),
            "{err}"
        );
        assert_eq!(septic.counters().sqli_detected, 1);
    }

    #[test]
    fn incremental_learning_in_normal_mode() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::PREVENTION);
        // Unknown query: learned incrementally, executed.
        conn.execute(BENIGN).unwrap();
        let created = septic.logger().events_where(|k| {
            matches!(
                k,
                EventKind::ModelCreated {
                    incremental: true,
                    ..
                }
            )
        });
        assert_eq!(created.len(), 1);
        // Second time it is found, not re-created.
        conn.execute(BENIGN).unwrap();
        assert_eq!(septic.counters().models_found, 1);
    }

    #[test]
    fn nn_config_detects_nothing() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute(BENIGN).unwrap();
        septic.set_mode(Mode::PREVENTION);
        septic.set_config(DetectionConfig::NN);
        conn.execute("SELECT * FROM tickets WHERE reservID = '' OR 1=1-- '")
            .unwrap();
        assert_eq!(septic.counters().sqli_detected, 0);
    }

    #[test]
    fn stored_injection_blocked_on_insert() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute("INSERT INTO tickets (reservID, creditCard, note) VALUES ('A', 1, 'hello')")
            .unwrap();
        septic.set_mode(Mode::PREVENTION);
        let err = conn
            .execute(
                "INSERT INTO tickets (reservID, creditCard, note) \
                 VALUES ('B', 2, '<script>alert(1)</script>')",
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Blocked(_)));
        assert_eq!(septic.counters().stored_detected, 1);
    }

    #[test]
    fn ny_config_detects_stored_but_not_sqli() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute(BENIGN).unwrap();
        conn.execute("INSERT INTO tickets (reservID, creditCard, note) VALUES ('A', 1, 'x')")
            .unwrap();
        septic.set_mode(Mode::PREVENTION);
        septic.set_config(DetectionConfig::NY);
        // SQLI passes (detector off)…
        conn.execute("SELECT * FROM tickets WHERE reservID = '' OR 1=1-- '")
            .unwrap();
        // …stored injection is still caught.
        assert!(conn
            .execute(
                "INSERT INTO tickets (reservID, creditCard, note) VALUES ('B', 2, '<svg/onload=x>')"
            )
            .is_err());
    }

    #[test]
    fn config_labels() {
        assert_eq!(DetectionConfig::NN.label(), "NN");
        assert_eq!(DetectionConfig::YN.label(), "YN");
        assert_eq!(DetectionConfig::NY.label(), "NY");
        assert_eq!(DetectionConfig::YY.label(), "YY");
        assert_eq!(DetectionConfig::all().len(), 4);
    }

    #[test]
    fn persistence_round_trip_survives_restart() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute(BENIGN).unwrap();
        let dir = std::env::temp_dir().join("septic-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("models.json");
        septic.save_models(&path).unwrap();

        // "Restart": a fresh SEPTIC loads the persisted models.
        let fresh = Septic::new();
        let report = fresh.load_models(&path).unwrap();
        assert_eq!(report.models_loaded, 1);
        assert!(!report.recovered);
        fresh.set_mode(Mode::PREVENTION);
        assert_eq!(fresh.store().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_ids_partition_models() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute("/* qid:page-a */ SELECT * FROM tickets WHERE reservID = 'X'")
            .unwrap();
        conn.execute("/* qid:page-b */ SELECT * FROM tickets WHERE reservID = 'X'")
            .unwrap();
        assert_eq!(septic.counters().models_created, 2);
        // With external ids disabled the same two queries share one model.
        let septic2 = Septic::new();
        septic2.set_use_external_ids(false);
        let server = Server::new();
        let conn2 = server.connect();
        conn2
            .execute("CREATE TABLE tickets (reservID VARCHAR(16))")
            .unwrap();
        server.install_guard(Arc::new(Septic::new()));
        // (behavioural check is in the ablation harness; here just the flag)
        assert!(!septic2.id_generator.use_external());
    }

    #[test]
    fn administrator_review_workflow() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::PREVENTION);
        // Unknown query arrives: learned provisionally, executed.
        conn.execute(BENIGN).unwrap();
        let pending = septic.pending_review();
        assert_eq!(pending.len(), 1);
        // Reject it: the same query is refused from now on.
        assert!(septic.reject_model(&pending[0]));
        let err = conn.execute(BENIGN).unwrap_err();
        assert!(matches!(err, DbError::Blocked(_)));
        assert!(err.to_string().contains("rejected by administrator"));
        // Approval path: a different query shape gets approved and keeps
        // flowing without re-entering quarantine.
        conn.execute("SELECT reservID FROM tickets WHERE creditCard = 7")
            .unwrap();
        let pending = septic.pending_review();
        assert_eq!(pending.len(), 1);
        assert!(septic.approve_model(&pending[0]));
        assert!(septic.pending_review().is_empty());
        conn.execute("SELECT reservID FROM tickets WHERE creditCard = 8")
            .unwrap();
        assert!(septic.pending_review().is_empty());
    }

    #[test]
    fn training_mode_models_are_not_quarantined() {
        let (_s, conn, septic) = deployed();
        septic.set_mode(Mode::Training);
        conn.execute(BENIGN).unwrap();
        assert!(septic.pending_review().is_empty());
    }

    #[test]
    fn status_report_shows_state() {
        let septic = Septic::new();
        septic.set_mode(Mode::PREVENTION);
        let report = septic.status_report();
        assert!(report.contains("mode            : prevention"));
        assert!(report.contains("detectors       : YY"));
        assert!(report.contains("models learned  : 0"));
    }

    #[test]
    fn recovered_payload_is_re_detected_by_a_fresh_deployment() {
        use septic_dbms::{MemIo, ServerConfig, WalConfig};

        let io = MemIo::new();
        // Life before the restart: no guard at all — the payload is
        // stored with nothing watching.
        {
            let (server, _) =
                Server::open_durable(ServerConfig::default(), io.clone(), WalConfig::default())
                    .unwrap();
            let conn = server.connect();
            conn.execute("CREATE TABLE posts (id INT PRIMARY KEY, body VARCHAR(200))")
                .unwrap();
            conn.execute_prepared(
                "INSERT INTO posts (id, body) VALUES (1, ?)",
                &[septic_dbms::Value::from("<script>alert(1)</script>")],
            )
            .unwrap();
            conn.execute("INSERT INTO posts (id, body) VALUES (2, 'benign note')")
                .unwrap();
        }

        // Restart: recover from the WAL, deploy a fresh SEPTIC in
        // prevention mode, and sweep the recovered data.
        let (server, report) =
            Server::open_durable(ServerConfig::default(), io, WalConfig::default()).unwrap();
        assert!(report.replayed_records > 0);
        let septic = Arc::new(Septic::new());
        septic.set_mode(Mode::PREVENTION);
        server.install_guard(septic.clone());
        let flagged = server.scan_recovered();
        assert_eq!(flagged, 1, "the stored XSS payload must be re-detected");
        let snap = septic.counters();
        assert!(snap.recovered_values >= 2);
        assert_eq!(snap.recovered_flagged, 1);
        let events = septic
            .logger()
            .events_where(|k| matches!(k, EventKind::RecoveredDataFlagged { .. }));
        assert_eq!(events.len(), 1);
        // The ablation switch gates the sweep.
        septic.set_config(DetectionConfig::YN);
        assert_eq!(server.scan_recovered(), 0);
    }

    #[test]
    fn mode_change_is_logged() {
        let septic = Septic::new();
        septic.set_mode(Mode::PREVENTION);
        septic.set_mode(Mode::PREVENTION); // no-op
        let changes = septic
            .logger()
            .events_where(|k| matches!(k, EventKind::ModeChanged { .. }));
        assert_eq!(changes.len(), 1);
    }
}

//! Layouts: many mask shapes, many placements, fractured independently.
//!
//! A full-field mask holds billions of polygons but "each shape can be
//! fractured independently" (paper §2) — and repeated cells share one
//! fracturing result. [`Layout`] models exactly that: a library of
//! distinct *shapes* and a list of *placements* referencing them, so
//! fracturing cost scales with distinct shapes while shot statistics
//! scale with placements.

use crate::geomcache::GeomCache;
use crate::io::CheckpointIoError;
use crate::journal::{self, JournalRecord, JournalWriter};
use maskfrac_baselines::{FallbackFracturer, FallbackOutcome};
use maskfrac_fracture::{faults, FractureConfig, FractureScratch, FractureStatus};
use maskfrac_geom::{canonicalize, Canonical, Point, Polygon, Rect, D4};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads a layout run will spawn; requests above
/// it are clamped (and a request of 0 is treated as 1).
pub const MAX_LAYOUT_THREADS: usize = 256;

/// A placement of a library shape: an optional D4 symmetry (mirror
/// and/or 90°-rotation about the shape's local origin) followed by a
/// translation — the full rigid placement vocabulary of hierarchical
/// mask formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Translation applied to the (transformed) library shape, nm.
    pub offset: Point,
    /// Symmetry applied to the library shape about its local origin,
    /// before the translation. Defaults to the identity, so
    /// translation-only layouts (including their JSON form) are
    /// unchanged.
    pub transform: D4,
}

impl Placement {
    /// Places the shape with its local origin at `(x, y)` nm.
    pub fn at(x: i64, y: i64) -> Self {
        Placement {
            offset: Point::new(x, y),
            transform: D4::R0,
        }
    }

    /// Places the shape transformed by `transform` about its local
    /// origin, then translated to `(x, y)` nm.
    pub fn transformed(x: i64, y: i64, transform: D4) -> Self {
        Placement {
            offset: Point::new(x, y),
            transform,
        }
    }
}

/// A mask layout: a shape library plus placements.
///
/// Shape names are unique; placements reference names. Placements of
/// unknown names are rejected.
///
/// A placement is a cell reference: the name is interned once, at its
/// first placement, and every placement stores its id into that table.
/// Ids follow first-placement order, so two layouts compare equal exactly
/// when they hold the same library and the same placements in the same
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Layout name (for reports).
    pub name: String,
    shapes: BTreeMap<String, Polygon>,
    /// Placed shape names in first-placement order; a placement's id
    /// indexes this table.
    names: Vec<String>,
    /// Id of every name in `names`.
    ids: HashMap<String, u32>,
    placements: Vec<(u32, Placement)>,
}

impl Layout {
    /// Creates an empty layout.
    pub fn new(name: &str) -> Self {
        Layout {
            name: name.to_owned(),
            shapes: BTreeMap::new(),
            names: Vec::new(),
            ids: HashMap::new(),
            placements: Vec::new(),
        }
    }

    /// Adds (or replaces) a library shape. Returns the previous shape
    /// under that name, if any.
    pub fn add_shape(&mut self, name: &str, polygon: Polygon) -> Option<Polygon> {
        self.shapes.insert(name.to_owned(), polygon)
    }

    /// Whether the library holds a shape named `name`.
    pub(crate) fn has_shape(&self, name: &str) -> bool {
        self.shapes.contains_key(name)
    }

    /// Places a library shape. Allocates only on a name's first
    /// placement; later ones cost one hash lookup.
    ///
    /// # Panics
    ///
    /// Panics if no shape with that name exists — placements must
    /// reference the library — or if a layout places more than 2³²
    /// distinct shapes.
    pub fn place(&mut self, name: &str, placement: Placement) {
        // Shapes are never removed, so an interned name is always in the
        // library.
        let id = match self.ids.get(name) {
            Some(&id) => id,
            None => {
                assert!(
                    self.has_shape(name),
                    "placement references unknown shape {name:?}"
                );
                let id = u32::try_from(self.names.len())
                    .unwrap_or_else(|_| panic!("more than 2^32 distinct placed shapes"));
                self.names.push(name.to_owned());
                self.ids.insert(name.to_owned(), id);
                id
            }
        };
        self.placements.push((id, placement));
    }

    /// Number of distinct library shapes.
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// Number of placed instances.
    pub fn instance_count(&self) -> usize {
        self.placements.len()
    }

    /// Iterator over the shape library.
    pub fn shapes(&self) -> impl Iterator<Item = (&str, &Polygon)> {
        self.shapes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterator over placements as `(shape name, placement)`.
    pub fn placements(&self) -> impl Iterator<Item = (&str, Placement)> {
        self.placements
            .iter()
            .map(|&(id, p)| (self.names[id as usize].as_str(), p))
    }

    /// Placement count per shape name.
    pub fn placement_counts(&self) -> BTreeMap<String, usize> {
        let mut tally = vec![0; self.names.len()];
        for &(id, _) in &self.placements {
            tally[id as usize] += 1;
        }
        self.names.iter().cloned().zip(tally).collect()
    }

    /// Bounding box of all placed instances, or `None` for an empty
    /// placement list.
    #[cfg(test)]
    pub(crate) fn bbox(&self) -> Option<Rect> {
        self.placements()
            .map(|(name, p)| {
                let b = self.shapes[name].bbox();
                p.transform.apply_rect(&b).translate(p.offset)
            })
            .reduce(|a, b| a.union_bbox(&b))
    }
}

/// Per-shape fracturing outcome within a layout run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeFractureStats {
    /// Library shape name.
    pub shape: String,
    /// Shots for one instance of the shape.
    pub shots_per_instance: usize,
    /// Placed instances.
    pub instances: usize,
    /// Failing pixels for one instance.
    pub fail_pixels: usize,
    /// Fracturing runtime for this shape (all fallback attempts), seconds.
    pub runtime_s: f64,
    /// Outcome tag: `Ok`/`Degraded` from the model-based rungs,
    /// `Fallback` when a baseline delivered the shots, `Failed` when
    /// every rung of the ladder failed (empty shot list).
    pub status: FractureStatus,
    /// Which method delivered: `"ours"`, `"ours-retry"`,
    /// `"ours-degraded"`, `"proto-eda"`, `"conventional"`, or `"none"`.
    pub method: String,
    /// Failure causes of rungs that did not deliver, if any.
    pub error: Option<String>,
    /// Fallback-ladder rungs attempted (1 = first try succeeded).
    pub attempts: u32,
    /// Shot-refinement iterations spent by the delivering rung.
    pub iterations: usize,
    /// Residual Pon violations (interior pixels below threshold).
    pub on_fail_pixels: usize,
    /// Residual Poff violations (exterior pixels above threshold).
    pub off_fail_pixels: usize,
    /// Which tier served this library entry: `computed` (the first
    /// entry of its geometry in library order, fractured by this run),
    /// `disk` (that first entry, loaded from the persistent
    /// geometry-cache tier), `hit` (a later entry with the same canonical
    /// geometry, sharing the first one's result at 0 s) or `resumed`
    /// (every entry of a geometry replayed from a checkpoint journal).
    /// A function of the layout and the persisted tiers alone, never of
    /// thread timing.
    pub cache: String,
    /// Whether the per-shape deadline cut refinement short.
    pub deadline_hit: bool,
}

impl ShapeFractureStats {
    /// This row as a run-report v2 ledger record
    /// ([`maskfrac_obs::ShapeRecord`]).
    pub fn ledger_record(&self) -> maskfrac_obs::ShapeRecord {
        maskfrac_obs::ShapeRecord {
            id: self.shape.clone(),
            status: self.status.label().to_owned(),
            method: self.method.clone(),
            shots: self.shots_per_instance,
            fail_pixels: self.fail_pixels,
            runtime_s: self.runtime_s,
            attempts: self.attempts as usize,
            iterations: self.iterations,
            on_fail_pixels: self.on_fail_pixels,
            off_fail_pixels: self.off_fail_pixels,
            cache: self.cache.clone(),
            deadline_hit: self.deadline_hit,
        }
    }
}

/// Result of fracturing a whole layout.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutFractureReport {
    /// Layout name.
    pub layout: String,
    /// Per-shape statistics, sorted by shape name.
    pub per_shape: Vec<ShapeFractureStats>,
    /// Shot list per placed library shape, in the shape's **local**
    /// frame (the canonical-cell result mapped back through the shape's
    /// canonical transform). One entry per placed shape regardless of
    /// instance count; expand to placements with [`Self::placed_shots`].
    pub shape_shots: BTreeMap<String, Vec<Rect>>,
}

impl LayoutFractureReport {
    /// World-frame shots of every placed instance, in placement order —
    /// each local shot pushed through the placement's D4 transform and
    /// translation. Lazily expanded, so a full-chip instance count
    /// never materializes in memory at once: the local shots of each
    /// (shape, transform) pair the layout uses are transformed once per
    /// call, and a placement then only translates them.
    pub fn placed_shots<'a>(&'a self, layout: &'a Layout) -> impl Iterator<Item = Rect> + 'a {
        let slot = |id: u32, transform: D4| id as usize * 8 + usize::from(transform.index());
        let mut spans = vec![(0, 0); layout.names.len() * 8];
        let mut resolved = vec![false; spans.len()];
        let mut shots = Vec::new();
        for &(id, p) in &layout.placements {
            let slot = slot(id, p.transform);
            if !std::mem::replace(&mut resolved[slot], true) {
                let local = self.shape_shots.get(&layout.names[id as usize]);
                let start = shots.len();
                shots.extend(
                    local
                        .into_iter()
                        .flatten()
                        .map(|s| p.transform.apply_rect(s)),
                );
                spans[slot] = (start, shots.len());
            }
        }
        let mut placements = layout.placements.iter();
        let (mut at, mut end, mut offset) = (0, 0, Point::new(0, 0));
        std::iter::from_fn(move || {
            while at == end {
                let &(id, p) = placements.next()?;
                (at, end) = spans[slot(id, p.transform)];
                offset = p.offset;
            }
            at += 1;
            Some(shots[at - 1].translate(offset))
        })
    }

    /// Total shots over all placed instances.
    pub fn total_shots(&self) -> usize {
        self.per_shape
            .iter()
            .map(|s| s.shots_per_instance * s.instances)
            .sum()
    }

    /// Total failing pixels over all placed instances.
    pub fn total_fail_pixels(&self) -> usize {
        self.per_shape
            .iter()
            .map(|s| s.fail_pixels * s.instances)
            .sum()
    }

    /// Total distinct-shape fracturing runtime (the MDP compute cost),
    /// seconds.
    #[cfg(test)]
    pub(crate) fn total_runtime_s(&self) -> f64 {
        self.per_shape.iter().map(|s| s.runtime_s).sum()
    }

    /// Worst per-shape status in the report (`Ok` for an empty layout):
    /// the layout-level health verdict.
    pub fn worst_status(&self) -> FractureStatus {
        self.per_shape
            .iter()
            .map(|s| s.status)
            .max()
            .unwrap_or_default()
    }

    /// Shape count per status, for the run summary.
    pub fn status_counts(&self) -> BTreeMap<FractureStatus, usize> {
        let mut counts = BTreeMap::new();
        for s in &self.per_shape {
            *counts.entry(s.status).or_insert(0) += 1;
        }
        counts
    }
}

/// Options for [`fracture_layout_opts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutOptions {
    /// Worker threads, clamped to `1..=`[`MAX_LAYOUT_THREADS`] (0 runs
    /// single-threaded instead of panicking).
    pub threads: usize,
    /// Root directory of the persistent geometry-cache tier; `None`
    /// disables it. When set, freshly
    /// computed canonical geometries are persisted and later runs load
    /// them instead of re-fracturing (`disk` cache label,
    /// `mdp.geomcache.*` counters).
    pub geom_cache: Option<PathBuf>,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            threads: 1,
            geom_cache: None,
        }
    }
}

/// Where (and whether) a layout run journals its progress; see
/// [`fracture_layout_journaled`] and [`crate::journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Journal path. Created (truncated) for a fresh run; validated and
    /// extended for a resume.
    pub path: PathBuf,
    /// Replay an existing journal at `path` instead of starting fresh.
    /// A missing file is not an error — the run simply starts from
    /// zero, so a supervisor can always pass `--resume`.
    pub resume: bool,
}

/// Cache key: a polygon's exact vertex list, byte-encoded. Applied to
/// the *canonical* form ([`maskfrac_geom::canonicalize`]), so two
/// library entries share a fracturing result iff their geometries agree
/// up to translation and D4 symmetry.
fn geometry_key(polygon: &Polygon) -> Vec<u8> {
    let vertices = polygon.vertices();
    let mut key = Vec::with_capacity(vertices.len() * 16);
    for p in vertices {
        key.extend_from_slice(&p.x.to_le_bytes());
        key.extend_from_slice(&p.y.to_le_bytes());
    }
    key
}

/// Fractures every placed shape of a layout under explicit
/// [`LayoutOptions`], spreading distinct shapes over `options.threads`
/// worker threads (each shape is independent, exactly as the paper
/// notes). Results are deterministic regardless of thread count.
///
/// The wrapper for runs without a checkpoint journal; the core is
/// [`fracture_layout_journaled`]. To set only the thread count, pass
/// `&LayoutOptions { threads, ..LayoutOptions::default() }`.
///
/// Each shape runs through the crash-proof
/// [`FallbackFracturer`] ladder: model-based, one model-based retry,
/// a degraded model-based tier, then the `proto-eda` and `conventional`
/// baselines. A shape that panics or errors never takes the run down —
/// it lands in the report as `Fallback` (baseline shots) or `Failed`
/// (empty shot list plus the recorded causes). Every worker carries its
/// own [`FractureScratch`] arena, so per-shape heap allocation amortizes
/// away across the run.
///
/// Library entries with the same canonical geometry (equal up to
/// translation and D4 symmetry) are grouped before any worker starts, and
/// workers pull distinct geometries, not entries: the pipeline runs
/// exactly once per distinct geometry at any thread count, and no worker
/// ever waits on another. The first entry of a group in library order
/// carries the computation (`mdp.cache.misses`); every later one shares
/// its result as a `hit` (`mdp.cache.hits`). The whole run is wrapped in
/// the `mdp.fracture_layout` span and worker threads aggregate into the
/// same process-global counters, so a `RunReport` captured after this
/// call reflects the full layout regardless of thread count.
pub fn fracture_layout_opts(
    layout: &Layout,
    config: &FractureConfig,
    options: &LayoutOptions,
) -> LayoutFractureReport {
    drive_layout(layout, config, options, None)
}

/// [`fracture_layout_opts`] with a durable checkpoint journal: every
/// completed distinct geometry is appended to `checkpoint.path` as a
/// framed, checksummed [`JournalRecord`], and with `checkpoint.resume`
/// the valid prefix of an existing journal is replayed instead of
/// re-fractured — shapes served this way carry the `resumed` cache
/// label, zero wall time, and never touch the pipeline, so a resumed
/// run's shot counts are bit-identical to an uninterrupted one.
///
/// A journal append failure mid-run never takes the run down: the
/// checkpoint degrades to disabled (one stderr warning,
/// `mdp.journal.append_failures` counts the losses) and fracturing
/// continues.
///
/// # Errors
///
/// Setup errors only: the journal cannot be created
/// ([`CheckpointIoError::Write`]), an existing journal cannot be read or
/// is not a journal ([`CheckpointIoError::Read`] /
/// [`CheckpointIoError::Header`]), or it belongs to a different
/// layout/config ([`CheckpointIoError::FingerprintMismatch`]).
pub fn fracture_layout_journaled(
    layout: &Layout,
    config: &FractureConfig,
    options: &LayoutOptions,
    checkpoint: &CheckpointOptions,
) -> Result<LayoutFractureReport, CheckpointIoError> {
    let fingerprint = journal::run_fingerprint(layout, config);
    let mut replay: HashMap<u64, JournalRecord> = HashMap::new();
    let writer = if checkpoint.resume && checkpoint.path.exists() {
        let recovered = journal::read_journal(&checkpoint.path)?;
        if recovered.fingerprint != fingerprint {
            return Err(CheckpointIoError::FingerprintMismatch {
                path: checkpoint.path.clone(),
                found: recovered.fingerprint,
                expected: fingerprint,
            });
        }
        if recovered.torn_tail_bytes > 0 {
            maskfrac_obs::counter!("mdp.journal.torn_tails").incr();
        }
        for record in recovered.records {
            // First record wins; a duplicate geometry (two racing
            // pre-crash runs) is harmless because records are pure
            // functions of (geometry, config).
            replay.entry(record.geometry).or_insert(record);
        }
        JournalWriter::resume(&checkpoint.path, recovered.valid_len)?
    } else {
        JournalWriter::create(&checkpoint.path, fingerprint)?
    };
    let state = JournalState {
        writer,
        replay,
        append_ok: AtomicBool::new(true),
    };
    Ok(drive_layout(layout, config, options, Some(&state)))
}

/// Journal plumbing one checkpointed run threads through its workers.
struct JournalState {
    writer: JournalWriter,
    /// Valid records of the resumed journal, by geometry fingerprint.
    replay: HashMap<u64, JournalRecord>,
    /// Cleared on the first append failure: the checkpoint degrades to
    /// disabled instead of failing the run.
    append_ok: AtomicBool,
}

/// The hung-shape watchdog flags a computed shape slower than this
/// multiple of the running p99 of prior computed shapes.
const WATCHDOG_MULTIPLE: u32 = 4;

/// Computed-shape samples the watchdog needs before it starts flagging.
/// Only freshly computed fracturing runs count — cache hits, disk loads
/// and journal replays are excluded on both sides, so a cache-hit-heavy
/// hierarchical run (few computed cells) can never spuriously flag the
/// remaining real computations.
const WATCHDOG_MIN_SAMPLES: usize = 8;

/// Running watchdog over computed-shape wall times: keeps a sorted
/// sample vector and flags completions exceeding
/// [`WATCHDOG_MULTIPLE`]` × p99(prior samples)` once
/// [`WATCHDOG_MIN_SAMPLES`] samples exist.
#[derive(Default)]
struct Watchdog {
    samples: Mutex<Vec<f64>>,
}

impl Watchdog {
    /// Records one computed shape's wall time; returns whether the
    /// shape should be flagged as hung (against the p99 of *prior*
    /// samples, so one monster shape cannot hide itself).
    fn observe(&self, runtime_s: f64) -> bool {
        let mut samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let flagged = samples.len() >= WATCHDOG_MIN_SAMPLES && {
            let p99 = samples[(samples.len() - 1).min(samples.len() * 99 / 100)];
            runtime_s > f64::from(WATCHDOG_MULTIPLE) * p99
        };
        let at = samples.partition_point(|&s| s <= runtime_s);
        samples.insert(at, runtime_s);
        flagged
    }
}

/// One placed library entry, pre-canonicalized.
struct Member<'a> {
    name: &'a str,
    canonical: Canonical,
}

/// One distinct canonical geometry, the driver's work unit: the placed
/// library entries that share it, in library order.
struct Group<'a> {
    /// Fingerprint of the canonical geometry: the journal and
    /// persistent-tier key.
    geometry: u64,
    members: Vec<Member<'a>>,
}

/// Groups the placed library entries by their exact canonical geometry
/// (the key bytes, not the 64-bit fingerprint), in order of each group's
/// first entry.
fn group_by_geometry<'a>(layout: &'a Layout, counts: &BTreeMap<String, usize>) -> Vec<Group<'a>> {
    let mut groups: Vec<Group<'a>> = Vec::new();
    let mut by_key: HashMap<Vec<u8>, usize> = HashMap::new();
    for (name, polygon) in layout
        .shapes()
        .filter(|(name, _)| counts.contains_key(*name))
    {
        let canonical = canonicalize(polygon);
        let key = geometry_key(&canonical.polygon);
        let member = Member { name, canonical };
        match by_key.entry(key) {
            Entry::Occupied(group) => groups[*group.get()].members.push(member),
            Entry::Vacant(slot) => {
                let geometry = journal::geometry_fingerprint(slot.key());
                slot.insert(groups.len());
                groups.push(Group {
                    geometry,
                    members: vec![member],
                });
            }
        }
    }
    groups
}

/// The shared layout driver behind [`fracture_layout_opts`] and
/// [`fracture_layout_journaled`].
fn drive_layout(
    layout: &Layout,
    config: &FractureConfig,
    options: &LayoutOptions,
    journal: Option<&JournalState>,
) -> LayoutFractureReport {
    let _span = maskfrac_obs::span("mdp.fracture_layout");
    let threads = options.threads.clamp(1, MAX_LAYOUT_THREADS);
    // A result bent by an injected in-process fault must not outlive its
    // run: such a run neither loads nor stores geometry-cache artifacts
    // and neither replays nor appends journal records.
    let persist = !faults::alters_results();
    let journal = journal.filter(|_| persist);
    if let Some(state) = journal {
        maskfrac_obs::counter!("mdp.journal.replayed").add(state.replay.len() as u64);
    }
    let counts = layout.placement_counts();
    // Every tier — journal and persistent — keys on the canonical form,
    // and the whole pipeline (fault fingerprints included) is a function
    // of canonical geometry and config, so mirrored/rotated entries of
    // one cell share one result.
    let groups = group_by_geometry(layout, &counts);

    let driver = Driver {
        // The persistent tier is strictly optional: a directory that
        // cannot be opened degrades to an uncached run (stderr warning),
        // exactly like a failing journal append.
        geomcache: options
            .geom_cache
            .as_deref()
            .filter(|_| persist)
            .and_then(|root| {
                GeomCache::open(root, config)
                    .map_err(|e| {
                        eprintln!(
                            "maskfrac: geometry cache disabled ({}): {e}",
                            root.display()
                        )
                    })
                    .ok()
            }),
        journal,
        watchdog: Watchdog::default(),
        counts,
    };
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut delivered: Vec<Delivered> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(groups.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    // One ladder and one scratch arena per worker: Lth
                    // derivation and the hot-path buffers are shared per
                    // thread, geometries pull work-stealing style off the
                    // queue.
                    let fracturer = FallbackFracturer::new(config.clone());
                    let mut scratch = FractureScratch::new();
                    let mut out = Vec::new();
                    while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                        driver.deliver(group, &fracturer, &mut scratch, &mut out);
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    delivered.sort_by(|a, b| a.0.shape.cmp(&b.0.shape));
    let (per_shape, shots): (Vec<ShapeFractureStats>, Vec<Vec<Rect>>) =
        delivered.into_iter().unzip();
    let shape_shots = per_shape
        .iter()
        .map(|s| s.shape.clone())
        .zip(shots)
        .collect();
    LayoutFractureReport {
        layout: layout.name.clone(),
        per_shape,
        shape_shots,
    }
}

/// One delivered library entry: its report row and its local-frame shots.
type Delivered = (ShapeFractureStats, Vec<Rect>);

/// What the workers of one layout run share.
struct Driver<'a> {
    geomcache: Option<GeomCache>,
    journal: Option<&'a JournalState>,
    watchdog: Watchdog,
    /// Placement count per shape name.
    counts: BTreeMap<String, usize>,
}

impl Driver<'_> {
    /// Serves one distinct geometry from the first tier that has it —
    /// journal replay, persistent tier, then the ladder — and records it
    /// for every member of its group: status tally, ledger point, shot
    /// list and row. The one delivery point, so every entry is counted
    /// exactly once.
    fn deliver(
        &self,
        group: &Group<'_>,
        fracturer: &FallbackFracturer,
        scratch: &mut FractureScratch,
        out: &mut Vec<Delivered>,
    ) {
        let first = &group.members[0];
        let replayed = self
            .journal
            .and_then(|state| state.replay.get(&group.geometry));
        let served;
        let (record, first_label, first_runtime_s, alias_label) = match replayed {
            // A journal replay serves the group without touching the
            // pipeline: no ladder spans, no wall time, so a resumed run
            // cannot skew stage quantiles.
            Some(record) => (record, "resumed", 0.0, "resumed"),
            None => {
                let started = std::time::Instant::now();
                let (record, from_disk) = self.fracture(group, fracturer, scratch);
                let runtime_s = started.elapsed().as_secs_f64();
                maskfrac_obs::counter!("mdp.cache.misses").incr();
                maskfrac_obs::counter!("mdp.cache.hits").add(group.members.len() as u64 - 1);
                // Only genuine pipeline runs feed the watchdog: disk
                // loads take microseconds and would otherwise crater the
                // p99 baseline.
                if !from_disk && self.watchdog.observe(runtime_s) {
                    let name = first.name;
                    maskfrac_obs::counter!("mdp.watchdog.flagged").incr();
                    maskfrac_obs::point_with(
                        "mdp.watchdog_flag",
                        [
                            ("shape", name.into()),
                            ("runtime_ms", ((runtime_s * 1e3) as u64).into()),
                        ],
                    );
                    eprintln!(
                        "maskfrac: watchdog: shape {name:?} took {runtime_s:.3}s, \
                         over {WATCHDOG_MULTIPLE}x the p99 of prior shapes"
                    );
                }
                served = record;
                let label = if from_disk { "disk" } else { "computed" };
                (&served, label, runtime_s, "hit")
            }
        };
        for (i, member) in group.members.iter().enumerate() {
            let (label, runtime_s) = if i == 0 {
                (first_label, first_runtime_s)
            } else {
                (alias_label, 0.0)
            };
            let name = member.name;
            record.status.tally();
            let stats = shape_row(record, name, self.counts[name], runtime_s, label);
            maskfrac_obs::counter!("mdp.shapes_fractured").incr();
            maskfrac_obs::counter!("mdp.instances_covered").add(stats.instances as u64);
            emit_shape_done(&stats);
            // Canonical-frame shots map back to the member's local frame
            // through its canonical transform.
            let local_shots = record
                .shots
                .iter()
                .map(|s| {
                    member
                        .canonical
                        .from_canonical
                        .apply_rect(s)
                        .translate(member.canonical.offset)
                })
                .collect();
            out.push((stats, local_shots));
        }
    }

    /// Fractures one group's canonical geometry, or loads it from the
    /// persistent tier. A disk load is re-journaled so a resume stays
    /// self-contained without the cache directory; a fresh result is
    /// journaled and persisted unless its deadline cut it short (it then
    /// depends on wall clock, and a later run may do better). Returns the
    /// record and whether it came from disk.
    fn fracture(
        &self,
        group: &Group<'_>,
        fracturer: &FallbackFracturer,
        scratch: &mut FractureScratch,
    ) -> (JournalRecord, bool) {
        let disk = self.geomcache.as_ref();
        if let Some(record) = disk.and_then(|gc| gc.load(group.geometry)) {
            if let Some(state) = self.journal {
                append_journal_record(state, &record);
            }
            return (record, true);
        }
        let first = &group.members[0];
        let outcome = fracturer.fracture_with(&first.canonical.polygon, scratch);
        let record = outcome_record(group.geometry, outcome);
        if record.deadline_hit {
            return (record, false);
        }
        if let Some(state) = self.journal {
            append_journal_record(state, &record);
        }
        if let Some(Err(e)) = disk.map(|gc| gc.store(&record)) {
            eprintln!(
                "maskfrac: geometry cache store failed for {:?}: {e}",
                first.name
            );
        }
        (record, false)
    }
}

/// Emits the `mdp.shape_done` ledger point for one finished shape:
/// the per-shape breadcrumb of the captured event stream (Chrome-trace
/// worker handoffs, cache reuse) and — through the broadcast bus — the
/// live NDJSON row a `/events` telemetry client sees mid-run.
fn emit_shape_done(stats: &ShapeFractureStats) {
    maskfrac_obs::point_with(
        "mdp.shape_done",
        [
            ("shape", stats.shape.as_str().into()),
            ("shots", (stats.shots_per_instance as u64).into()),
            ("instances", (stats.instances as u64).into()),
            ("cache", stats.cache.as_str().into()),
            ("status", stats.status.label().into()),
        ],
    );
}

/// The report row of one library entry served `record` (in whichever
/// tier, labelled `cache`).
fn shape_row(
    record: &JournalRecord,
    shape: &str,
    instances: usize,
    runtime_s: f64,
    cache: &str,
) -> ShapeFractureStats {
    ShapeFractureStats {
        shape: shape.to_owned(),
        shots_per_instance: record.shots.len(),
        instances,
        fail_pixels: record.fail_pixels as usize,
        runtime_s,
        status: record.status,
        method: record.method.clone(),
        error: record.error.clone(),
        attempts: record.attempts,
        iterations: record.iterations as usize,
        on_fail_pixels: record.on_fail_pixels as usize,
        off_fail_pixels: record.off_fail_pixels as usize,
        cache: cache.to_owned(),
        deadline_hit: record.deadline_hit,
    }
}

/// A ladder outcome as the durable record shared by the checkpoint
/// journal, the persistent geometry cache and the dedup cache.
/// `geometry` is the canonical-geometry fingerprint; the shot list is in
/// canonical frame.
fn outcome_record(geometry: u64, outcome: FallbackOutcome) -> JournalRecord {
    JournalRecord {
        geometry,
        status: outcome.result.status,
        method: outcome.method.to_owned(),
        error: outcome.error,
        attempts: outcome.attempts,
        iterations: outcome.result.iterations as u64,
        on_fail_pixels: outcome.result.summary.on_fails as u64,
        off_fail_pixels: outcome.result.summary.off_fails as u64,
        fail_pixels: outcome.result.summary.fail_count() as u64,
        deadline_hit: outcome.result.deadline_hit,
        shots: outcome.result.shots,
    }
}

/// Journals one completed record, degrading the checkpoint to disabled
/// (rather than failing the run) on a write error.
fn append_journal_record(state: &JournalState, record: &JournalRecord) {
    if !state.append_ok.load(Ordering::Relaxed) {
        maskfrac_obs::counter!("mdp.journal.append_failures").incr();
        return;
    }
    match state.writer.append(record) {
        Ok(()) => maskfrac_obs::counter!("mdp.journal.appended").incr(),
        Err(e) => {
            maskfrac_obs::counter!("mdp.journal.append_failures").incr();
            if state.append_ok.swap(false, Ordering::Relaxed) {
                eprintln!("maskfrac: checkpoint journaling disabled: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads(threads: usize) -> LayoutOptions {
        LayoutOptions {
            threads,
            ..LayoutOptions::default()
        }
    }

    fn square(side: i64) -> Polygon {
        Polygon::from_rect(Rect::new(0, 0, side, side).unwrap())
    }

    fn demo_layout() -> Layout {
        let mut layout = Layout::new("demo");
        layout.add_shape("sq40", square(40));
        layout.add_shape("sq25", square(25));
        layout.add_shape("unused", square(60));
        for i in 0..5 {
            layout.place("sq40", Placement::at(i * 100, 0));
        }
        layout.place("sq25", Placement::at(0, 200));
        layout.place("sq25", Placement::at(300, 200));
        layout
    }

    #[test]
    fn layout_bookkeeping() {
        let layout = demo_layout();
        assert_eq!(layout.shape_count(), 3);
        assert_eq!(layout.instance_count(), 7);
        let counts = layout.placement_counts();
        assert_eq!(counts["sq40"], 5);
        assert_eq!(counts["sq25"], 2);
        assert!(!counts.contains_key("unused"));
        let bbox = layout.bbox().unwrap();
        assert_eq!(bbox, Rect::new(0, 0, 440, 225).unwrap());
    }

    #[test]
    #[should_panic(expected = "unknown shape")]
    fn placement_validates_name() {
        let mut layout = Layout::new("bad");
        layout.place("ghost", Placement::at(0, 0));
    }

    #[test]
    fn fracture_layout_counts_instances_once_per_shape() {
        let layout = demo_layout();
        let report = fracture_layout_opts(&layout, &FractureConfig::default(), &with_threads(2));
        // Unused shapes are not fractured.
        assert_eq!(report.per_shape.len(), 2);
        // Squares fracture to one shot each; instances multiply.
        assert_eq!(report.total_shots(), 7);
        assert_eq!(report.total_fail_pixels(), 0);
        assert!(report.total_runtime_s() > 0.0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let layout = demo_layout();
        let cfg = FractureConfig::default();
        let a = fracture_layout_opts(&layout, &cfg, &with_threads(1));
        let b = fracture_layout_opts(&layout, &cfg, &with_threads(4));
        let strip = |r: &LayoutFractureReport| -> Vec<(String, usize, usize, usize)> {
            r.per_shape
                .iter()
                .map(|s| (s.shape.clone(), s.shots_per_instance, s.instances, s.fail_pixels))
                .collect()
        };
        assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn empty_layout_report() {
        let layout = Layout::new("empty");
        assert!(layout.bbox().is_none());
        let report = fracture_layout_opts(&layout, &FractureConfig::default(), &with_threads(2));
        assert_eq!(report.total_shots(), 0);
        assert_eq!(report.worst_status(), FractureStatus::Ok);
    }

    #[test]
    fn zero_threads_is_clamped_not_fatal() {
        let report =
            fracture_layout_opts(&demo_layout(), &FractureConfig::default(), &with_threads(0));
        assert_eq!(report.per_shape.len(), 2);
        assert_eq!(report.total_shots(), 7);
    }

    #[test]
    fn clean_layout_is_all_ok_on_the_first_attempt() {
        let report =
            fracture_layout_opts(&demo_layout(), &FractureConfig::default(), &with_threads(2));
        assert_eq!(report.worst_status(), FractureStatus::Ok);
        for s in &report.per_shape {
            assert_eq!(s.status, FractureStatus::Ok);
            assert_eq!(s.method, "ours");
            assert_eq!(s.attempts, 1);
            assert!(s.error.is_none());
        }
    }

    #[test]
    fn degenerate_shape_lands_as_fallback_not_abort() {
        let mut layout = demo_layout();
        // Thinner than min_shot_size: rejected by the validating front
        // door, delivered by a baseline rung instead.
        layout.add_shape("sliver", Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap()));
        layout.place("sliver", Placement::at(0, 400));
        let report = fracture_layout_opts(&layout, &FractureConfig::default(), &with_threads(2));
        let sliver = report
            .per_shape
            .iter()
            .find(|s| s.shape == "sliver")
            .expect("sliver reported");
        assert_eq!(sliver.status, FractureStatus::Fallback);
        assert!(sliver.shots_per_instance > 0, "fallback must deliver shots");
        assert!(sliver.error.as_deref().unwrap_or("").contains("ours:"));
        assert!(sliver.attempts >= 3);
        assert_eq!(report.worst_status(), FractureStatus::Fallback);
        let counts = report.status_counts();
        assert_eq!(counts[&FractureStatus::Ok], 2);
        assert_eq!(counts[&FractureStatus::Fallback], 1);
    }

    #[test]
    fn injected_panics_never_abort_a_layout_run() {
        use maskfrac_fracture::{faults, Fault, FaultPlan};
        let _scope = faults::arm_scoped(FaultPlan::only(42, Fault::Panic, 1.0));
        let report =
            fracture_layout_opts(&demo_layout(), &FractureConfig::default(), &with_threads(2));
        assert_eq!(report.per_shape.len(), 2);
        for s in &report.per_shape {
            assert_eq!(s.status, FractureStatus::Fallback, "{s:?}");
            assert!(s.shots_per_instance > 0);
            assert!(s.attempts >= 3);
            assert!(s.error.as_deref().unwrap_or("").contains("panicked"));
        }
    }

    #[test]
    fn ledger_records_mirror_stats() {
        let layout = demo_layout();
        let report = fracture_layout_opts(&layout, &FractureConfig::default(), &with_threads(2));
        for s in &report.per_shape {
            let rec = s.ledger_record();
            assert_eq!(rec.id, s.shape);
            assert_eq!(rec.shots, s.shots_per_instance);
            assert_eq!(rec.status, s.status.label());
            assert_eq!(rec.on_fail_pixels + rec.off_fail_pixels, rec.fail_pixels);
            assert!(
                maskfrac_obs::ledger::KNOWN_CACHE_LABELS.contains(&rec.cache.as_str()),
                "{}",
                rec.cache
            );
        }
    }

    /// Holds an inert fault plan for a test that persists results: a
    /// fault plan armed by a concurrent test would switch persistence
    /// off underneath it.
    fn inert_faults() -> maskfrac_fracture::FaultScope {
        maskfrac_fracture::faults::arm_scoped(maskfrac_fracture::FaultPlan::uniform(0, 0.0))
    }

    fn tmp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("maskfrac-layout-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.mfj", std::process::id()))
    }

    /// A row with the two fields that legitimately differ between runs
    /// of one layout — wall time and the cache label — blanked, so every
    /// other field must agree.
    fn essence_row(s: &ShapeFractureStats) -> ShapeFractureStats {
        ShapeFractureStats {
            runtime_s: 0.0,
            cache: String::new(),
            ..s.clone()
        }
    }

    /// The rows of a report as [`essence_row`]s, for resumed-vs-
    /// uninterrupted and cross-tier comparisons.
    fn essence(report: &LayoutFractureReport) -> Vec<ShapeFractureStats> {
        report.per_shape.iter().map(essence_row).collect()
    }

    #[test]
    fn journaled_run_then_resume_is_bit_identical() {
        let _faults = inert_faults();
        let layout = demo_layout();
        let cfg = FractureConfig::default();
        let opts = LayoutOptions::default();
        let path = tmp_journal("resume");
        let _ = std::fs::remove_file(&path);

        let checkpoint = CheckpointOptions {
            path: path.clone(),
            resume: false,
        };
        let first = fracture_layout_journaled(&layout, &cfg, &opts, &checkpoint).unwrap();

        let resumed = fracture_layout_journaled(
            &layout,
            &cfg,
            &opts,
            &CheckpointOptions {
                path: path.clone(),
                resume: true,
            },
        )
        .unwrap();
        assert_eq!(essence(&first), essence(&resumed));
        for s in &resumed.per_shape {
            assert_eq!(s.cache, "resumed", "{}", s.shape);
            assert_eq!(s.runtime_s, 0.0, "resumed shapes must not re-count wall time");
        }

        // A torn tail (simulated mid-record crash) only loses the torn
        // record: the resumed run recomputes it and matches regardless.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let retorn = fracture_layout_journaled(
            &layout,
            &cfg,
            &opts,
            &CheckpointOptions {
                path: path.clone(),
                resume: true,
            },
        )
        .unwrap();
        assert_eq!(essence(&first), essence(&retorn));
        assert!(retorn.per_shape.iter().any(|s| s.cache == "resumed"));
        assert!(retorn.per_shape.iter().any(|s| s.cache != "resumed"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_foreign_fingerprint() {
        let layout = demo_layout();
        let cfg = FractureConfig::default();
        let opts = LayoutOptions::default();
        let path = tmp_journal("foreign");
        let _ = std::fs::remove_file(&path);
        fracture_layout_journaled(
            &layout,
            &cfg,
            &opts,
            &CheckpointOptions {
                path: path.clone(),
                resume: false,
            },
        )
        .unwrap();

        let other = FractureConfig {
            gamma: cfg.gamma * 2.0,
            ..cfg.clone()
        };
        let err = fracture_layout_journaled(
            &layout,
            &other,
            &opts,
            &CheckpointOptions {
                path: path.clone(),
                resume: true,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CheckpointIoError::FingerprintMismatch { .. }),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_an_existing_journal_starts_fresh() {
        let layout = demo_layout();
        let path = tmp_journal("fresh");
        let _ = std::fs::remove_file(&path);
        let report = fracture_layout_journaled(
            &layout,
            &FractureConfig::default(),
            &LayoutOptions::default(),
            &CheckpointOptions {
                path: path.clone(),
                resume: true,
            },
        )
        .unwrap();
        assert!(report.per_shape.iter().all(|s| s.cache != "resumed"));
        assert!(path.exists(), "a fresh journal must still be written");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn watchdog_flags_only_genuine_outliers() {
        let w = Watchdog::default();
        for _ in 0..WATCHDOG_MIN_SAMPLES {
            assert!(!w.observe(1.0), "baseline samples are never flagged");
        }
        assert!(!w.observe(3.9), "under the multiple");
        // The 3.9 joined the samples, so the p99 (max, at this sample
        // count) is now 3.9 and the bar sits at 15.6.
        assert!(!w.observe(15.5), "under the lifted bar");
        assert!(w.observe(70.0), "well past 4x the p99");
    }

    #[test]
    fn watchdog_waits_for_its_sample_floor() {
        // A cache-hit-heavy hierarchical run computes only a handful of
        // shapes; with near-zero lookup times in the sample pool the old
        // watchdog flagged every real computation. The sample floor
        // keeps it silent until enough *computed* samples exist.
        let w = Watchdog::default();
        for _ in 0..WATCHDOG_MIN_SAMPLES - 1 {
            assert!(!w.observe(0.001));
        }
        assert!(
            !w.observe(900.0),
            "an outlier below the sample floor never flags"
        );
        assert!(
            w.observe(5000.0),
            "past the floor the same outlier criterion applies"
        );
    }

    /// An asymmetric L-cell: no D4 symmetry, so all 8 images are
    /// distinct polygons with one shared canonical form.
    fn l_cell() -> Polygon {
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(60, 0),
            Point::new(60, 25),
            Point::new(25, 25),
            Point::new(25, 70),
            Point::new(0, 70),
        ])
        .unwrap()
    }

    #[test]
    fn d4_equivalent_entries_share_one_canonical_computation() {
        // Eight library entries, one per D4 image of the same cell (each
        // at a different translation for good measure): canonical keying
        // must fracture exactly one of them and serve the rest.
        let cell = l_cell();
        let mut layout = Layout::new("d4-orbit");
        for (i, t) in D4::ALL.into_iter().enumerate() {
            let name = format!("cell_{}", t.label());
            layout.add_shape(
                &name,
                cell.transform(t).translate(Point::new(13 * i as i64, -7)),
            );
            layout.place(&name, Placement::at(i as i64 * 200, 0));
        }
        let report = fracture_layout_opts(&layout, &FractureConfig::default(), &with_threads(1));
        assert_eq!(report.per_shape.len(), 8);
        let computed = report
            .per_shape
            .iter()
            .filter(|s| s.cache == "computed")
            .count();
        assert_eq!(computed, 1, "one fracture per canonical orbit");
        let shots: Vec<usize> = report.per_shape.iter().map(|s| s.shots_per_instance).collect();
        assert!(
            shots.windows(2).all(|w| w[0] == w[1]),
            "every image reports the shared shot count: {shots:?}"
        );
    }

    #[test]
    fn placed_shots_land_in_the_placement_frame() {
        let bar = Polygon::from_rect(Rect::new(0, 0, 40, 20).unwrap());
        let cfg = FractureConfig::default();

        let mut identity = Layout::new("id");
        identity.add_shape("bar", bar.clone());
        identity.place("bar", Placement::at(0, 0));
        let local =
            fracture_layout_opts(&identity, &cfg, &with_threads(1)).shape_shots["bar"].clone();
        assert!(!local.is_empty());

        let mut rotated = Layout::new("rot");
        rotated.add_shape("bar", bar);
        rotated.place("bar", Placement::transformed(100, 50, D4::R90));
        let report = fracture_layout_opts(&rotated, &cfg, &with_threads(1));
        // World shots are exactly the placement transform applied to the
        // shape-local shots of the identity run.
        let expected: Vec<Rect> = local
            .iter()
            .map(|s| D4::R90.apply_rect(s).translate(Point::new(100, 50)))
            .collect();
        let placed: Vec<Rect> = report.placed_shots(&rotated).collect();
        assert_eq!(placed, expected);
        // R90 about the local origin maps [0,40]×[0,20] to [-20,0]×[0,40];
        // the translation then lands the cell at [80,100]×[50,90].
        assert_eq!(rotated.bbox(), Some(Rect::new(80, 50, 100, 90).unwrap()));
    }

    fn tmp_geom_cache(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("maskfrac-layout-geomcache-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shot_output_is_identical_across_cache_tiers() {
        let _faults = inert_faults();
        // The same cell served fresh, as a dedup hit, from the
        // persistent tier and from a checkpoint journal must yield
        // byte-identical shots and the same report row.
        let cell = l_cell();
        let cfg = FractureConfig::default();
        let mut base = Layout::new("tiers");
        base.add_shape("cell", cell.clone());
        base.place("cell", Placement::at(0, 0));

        // Fresh: one entry, no persisted tier.
        let fresh = fracture_layout_opts(&base, &cfg, &with_threads(1));
        assert_eq!(fresh.per_shape[0].cache, "computed");
        let fresh_shots = fresh.shape_shots["cell"].clone();
        assert!(!fresh_shots.is_empty());
        let fresh_row = essence_row(&fresh.per_shape[0]);
        // Checks one tier's row and shots for `name` against the fresh run.
        let same_as_fresh = |report: &LayoutFractureReport, name: &str, label: &str| {
            let row = report
                .per_shape
                .iter()
                .find(|s| s.shape == name)
                .expect("row reported");
            assert_eq!(row.cache, label, "{name}");
            let row = ShapeFractureStats {
                shape: "cell".to_owned(),
                ..essence_row(row)
            };
            assert_eq!(row, fresh_row, "{label} row differs from the fresh one");
            assert_eq!(report.shape_shots[name], fresh_shots, "{label} shots");
        };

        // Dedup: a second entry with the same local geometry shares the
        // first one's result.
        let mut dup = Layout::new("tiers-dup");
        dup.add_shape("a", cell.clone());
        dup.add_shape("b", cell.clone());
        dup.place("a", Placement::at(0, 0));
        dup.place("b", Placement::at(500, 0));
        let deduped = fracture_layout_opts(&dup, &cfg, &with_threads(1));
        same_as_fresh(&deduped, "a", "computed");
        same_as_fresh(&deduped, "b", "hit");

        // Persistent tier: cold run stores, warm run loads from disk.
        let dir = tmp_geom_cache("tiers");
        let with_cache = LayoutOptions {
            threads: 1,
            geom_cache: Some(dir.clone()),
        };
        let cold = fracture_layout_opts(&base, &cfg, &with_cache);
        same_as_fresh(&cold, "cell", "computed");
        let warm = fracture_layout_opts(&base, &cfg, &with_cache);
        same_as_fresh(&warm, "cell", "disk");
        let _ = std::fs::remove_dir_all(&dir);

        // Journal: a resumed run replays the record.
        let path = tmp_journal("tiers");
        let _ = std::fs::remove_file(&path);
        for resume in [false, true] {
            let checkpoint = CheckpointOptions {
                path: path.clone(),
                resume,
            };
            let report =
                fracture_layout_journaled(&base, &cfg, &with_threads(1), &checkpoint).unwrap();
            same_as_fresh(&report, "cell", if resume { "resumed" } else { "computed" });
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_and_cache_agree_on_geometry_fingerprints() {
        let _faults = inert_faults();
        // The journal persists the same stable FNV-1a fingerprints the
        // driver computes per geometry: a save/load round trip must come back
        // with exactly the canonical fingerprints of the fractured
        // shapes — on every Rust release (the reason `DefaultHasher`
        // is banned from both paths).
        let layout = demo_layout();
        let cfg = FractureConfig::default();
        let path = tmp_journal("fingerprint-agreement");
        let _ = std::fs::remove_file(&path);
        fracture_layout_journaled(
            &layout,
            &cfg,
            &LayoutOptions::default(),
            &CheckpointOptions {
                path: path.clone(),
                resume: false,
            },
        )
        .unwrap();

        let replay = crate::journal::read_journal(&path).unwrap();
        assert_eq!(replay.fingerprint, crate::journal::run_fingerprint(&layout, &cfg));
        let journaled: std::collections::BTreeSet<u64> =
            replay.records.iter().map(|r| r.geometry).collect();
        let expected: std::collections::BTreeSet<u64> = layout
            .placement_counts()
            .keys()
            .map(|name| {
                let polygon = layout
                    .shapes()
                    .find(|(n, _)| n == name)
                    .map(|(_, p)| p)
                    .unwrap();
                let canonical = canonicalize(polygon);
                crate::journal::geometry_fingerprint(&geometry_key(&canonical.polygon))
            })
            .collect();
        assert_eq!(journaled, expected);
        let _ = std::fs::remove_file(&path);
    }
}

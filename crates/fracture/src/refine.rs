//! Iterative shot refinement (paper §4, Algorithm 1).
//!
//! Takes the approximate fracturing solution and repairs its CD violations
//! while holding the shot count down, by repeating, for up to `Nmax`
//! iterations:
//!
//! * **greedy shot edge adjustment** — every shot edge proposes ±1 nm
//!   moves, scored by the change in `cost_ref` (Eq. 5); improving moves
//!   are accepted best-first with a `2σ` blocking radius so accepted moves
//!   cannot interact (which would both invalidate the scores and cause the
//!   cycling the paper warns about);
//! * **bias all shots** — when no single edge improves, every shot is
//!   uniformly grown (too many under-exposed pixels) or shrunk (too many
//!   over-exposed) one pixel to escape the local minimum;
//! * **add / remove / merge shots** — when the cost has not improved for
//!   `NH` iterations: one shot is added over the largest cluster of failing
//!   `Pon` pixels, or the shot blamed for the most failing `Poff` pixels is
//!   removed, after which aligned or redundant shots are merged.
//!
//! The best solution (fewest failing pixels) seen across all iterations is
//! returned.
//!
//! Every candidate is scored exactly: `cost_ref` at the paper's 1 nm
//! pixel pitch through the interpolated edge-profile table (see
//! `maskfrac_ebeam`'s `intensity` module). Scoring is serial: parallelism
//! pays across shapes (the layout driver's workers), not inside one. The
//! tests below pin the engine against a full-rescan reference.

use crate::config::FractureConfig;
use crate::scratch::FractureScratch;
use maskfrac_ebeam::violations::{cost_delta_for_strip, evaluate, fail_bitmaps, ViolationTracker};
use maskfrac_ebeam::{Classification, ExposureModel, FailureSummary, IntensityMap};
use maskfrac_geom::rect::Edge;
use maskfrac_geom::{label_components, Rect};

/// Per-iteration trace record (used by the figure/ablation harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// `cost_ref` at the start of the iteration.
    pub cost: f64,
    /// Failing-pixel count at the start of the iteration.
    pub fails: usize,
    /// Shot count at the start of the iteration.
    pub shots: usize,
}

/// Result of shot refinement.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined shot list (best encountered by failing-pixel count).
    pub shots: Vec<Rect>,
    /// Violation summary of `shots`.
    pub summary: FailureSummary,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Per-iteration trace.
    pub history: Vec<IterationRecord>,
    /// Whether a wall-clock deadline cut the run short; `shots` is the
    /// best solution seen before expiry.
    pub deadline_hit: bool,
}

/// Runs Algorithm 1 on an initial shot list.
///
/// `cls` must have been built for the same target and with a margin of at
/// least the model's support radius. A deadline configured via
/// [`FractureConfig::deadline`] is measured from this call.
pub fn refine(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
) -> RefineOutcome {
    let deadline = cfg.deadline.map(|d| std::time::Instant::now() + d);
    refine_until_with(cls, model, cfg, initial, deadline, &mut FractureScratch::new())
}

/// [`refine`] against an absolute deadline (already-started clock), used
/// by the pipeline so validation and the approximate stage count against
/// the same budget, with an explicit [`FractureScratch`] arena: the
/// intensity grid and the engine's candidate cache are recycled from (and
/// handed back to) `scratch`, so repeated calls on one worker thread
/// allocate nothing in steady state.
///
/// Counts why the run stopped in exactly one of
/// `fracture.refine.stop.{converged,deadline,plateau,iteration_cap}`.
pub(crate) fn refine_until_with(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    let _span = maskfrac_obs::span("fracture.refine");
    let mut shots = initial;
    let mut map = IntensityMap::with_values(
        model.clone(),
        cls.frame(),
        scratch.take_map_values(cls.frame().len()),
    );
    map.rebuild(&shots);
    // Incremental state: the tracker carries the failure summary forward
    // per strip (no per-iteration frame scan), the engine carries scored
    // candidates forward per shot (no per-pass full re-score).
    let mut tracker = ViolationTracker::new(cls, &map);
    let mut engine = GreedyEngine::from_scratch(shots.len(), std::mem::take(&mut scratch.engine));

    let mut best_shots = shots.clone();
    let mut best_summary = tracker.summary();
    let mut history = Vec::new();

    let mut stall_best_cost = f64::INFINITY;
    let mut since_improve = 0usize;
    let mut iterations = 0usize;
    // Plateau-restart accounting for early stop.
    let mut restarts_without_progress = 0usize;
    let mut best_fails_at_last_restart = usize::MAX;
    let mut best_cost_at_last_restart = f64::INFINITY;
    let mut deadline_hit = false;
    // Why the loop below exits, counted once per run: the iteration cap
    // unless a `break` says otherwise.
    let mut stop = maskfrac_obs::counter!("fracture.refine.stop.iteration_cap");

    while iterations < cfg.max_iterations {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            deadline_hit = true;
            stop = maskfrac_obs::counter!("fracture.refine.stop.deadline");
            break;
        }
        let summary = tracker.summary();
        history.push(IterationRecord {
            cost: summary.cost,
            fails: summary.fail_count(),
            shots: shots.len(),
        });
        // Track the best solution by |Pfail|, tie-broken by shot count
        // then cost.
        if (summary.fail_count(), shots.len())
            < (best_summary.fail_count(), best_shots.len())
            || (summary.fail_count() == best_summary.fail_count()
                && shots.len() == best_shots.len()
                && summary.cost < best_summary.cost)
        {
            best_shots = shots.clone();
            best_summary = summary;
        }
        if summary.fail_count() == 0 {
            stop = maskfrac_obs::counter!("fracture.refine.stop.converged");
            break;
        }

        if summary.cost < stall_best_cost - 1e-6 {
            stall_best_cost = summary.cost;
            since_improve = 0;
        } else {
            since_improve += 1;
        }

        if since_improve >= cfg.stall_window {
            // Progress since the previous restart means either a better
            // best solution or a new global cost minimum (a genuine slow
            // descent must not be mistaken for a limit cycle).
            let progressed = best_summary.fail_count() < best_fails_at_last_restart
                || stall_best_cost < best_cost_at_last_restart - 1e-6;
            best_fails_at_last_restart = best_fails_at_last_restart.min(best_summary.fail_count());
            best_cost_at_last_restart = best_cost_at_last_restart.min(stall_best_cost);
            if progressed {
                restarts_without_progress = 0;
            } else {
                restarts_without_progress += 1;
                if restarts_without_progress >= cfg.max_plateau_restarts {
                    // Cycling on an infeasible residue.
                    stop = maskfrac_obs::counter!("fracture.refine.stop.plateau");
                    break;
                }
            }
            if summary.on_fails > summary.off_fails {
                add_shot(cls, &mut map, &mut shots, cfg);
            } else {
                remove_shot(cls, &mut map, &mut shots);
            }
            merge_shots(cls, &mut map, &mut shots, cfg);
            // Structural moves mutate the map outside the tracker and
            // shuffle shot indices: bring both back in sync. These fire
            // at most once per stall window, so the full re-scan here is
            // off the hot path.
            tracker.resync(cls, &map);
            engine.reset(shots.len());
            // Give the jolt a fresh stall window, but keep the historical
            // best cost as the improvement reference: resetting it would
            // let a bias-induced limit cycle (cost rises, then descends
            // back to the same floor) masquerade as progress forever and
            // starve the plateau break above.
            since_improve = 0;
        } else {
            // Fine ±1 nm moves first; if none improves, coarser ±2 nm
            // strides can step over flat spots; bias is the last resort.
            let moved = engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 1)
                || engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 2);
            if !moved {
                bias_all_shots(cls, &mut map, &mut tracker, &mut shots, cfg, &summary);
                engine.invalidate_all();
            }
        }
        iterations += 1;
    }

    // Final check of the last state (the loop records at iteration start).
    let final_summary = evaluate(cls, &map);
    if (final_summary.fail_count(), shots.len())
        < (best_summary.fail_count(), best_shots.len())
    {
        best_shots = shots;
        best_summary = final_summary;
    }

    // Hand the arena its buffers back for the next shape on this worker.
    scratch.engine = engine.into_scratch();
    scratch.put_map_values(map.into_values());

    maskfrac_obs::counter!("fracture.refine.iterations").add(iterations as u64);
    if deadline_hit {
        maskfrac_obs::counter!("fracture.refine.deadline_hits").incr();
    }
    stop.incr();
    RefineOutcome {
        shots: best_shots,
        summary: best_summary,
        iterations,
        history,
        deadline_hit,
    }
}

/// Edge-only polish: greedy shot-edge adjustment plus biasing, with no
/// shot addition, removal or merging — the shot count is preserved.
///
/// Used by the cover-style baselines as their "simulation driven" cleanup
/// stage: it repairs boundary violations without granting them the paper's
/// full Algorithm 1.
pub fn polish_edges(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    max_iterations: usize,
) -> RefineOutcome {
    let mut shots = initial;
    let mut map = IntensityMap::new(model.clone(), cls.frame());
    for s in &shots {
        map.add_shot(s);
    }
    let mut tracker = ViolationTracker::new(cls, &map);
    let mut engine = GreedyEngine::new(shots.len());
    let mut best_shots = shots.clone();
    let mut best_summary = tracker.summary();
    let mut iterations = 0usize;
    let mut history = Vec::new();
    let mut bias_budget = 6usize; // bias can ping-pong; bound it
    let deadline = cfg.deadline.map(|d| std::time::Instant::now() + d);
    let mut deadline_hit = false;

    while iterations < max_iterations {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            deadline_hit = true;
            break;
        }
        let summary = tracker.summary();
        history.push(IterationRecord {
            cost: summary.cost,
            fails: summary.fail_count(),
            shots: shots.len(),
        });
        if summary.fail_count() < best_summary.fail_count() {
            best_shots = shots.clone();
            best_summary = summary;
        }
        if summary.fail_count() == 0 {
            break;
        }
        let moved = engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 1)
            || engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 2);
        if !moved {
            if bias_budget == 0 {
                break;
            }
            bias_budget -= 1;
            bias_all_shots(cls, &mut map, &mut tracker, &mut shots, cfg, &summary);
            engine.invalidate_all();
        }
        iterations += 1;
    }
    let final_summary = evaluate(cls, &map);
    if final_summary.fail_count() < best_summary.fail_count() {
        best_shots = shots;
        best_summary = final_summary;
    }
    RefineOutcome {
        shots: best_shots,
        summary: best_summary,
        iterations,
        history,
        deadline_hit,
    }
}

/// Post-feasibility shot-count reduction sweep.
///
/// An extension beyond the paper's Algorithm 1 (which only merges shots):
/// tentatively remove one shot and re-run a *bounded* refinement; keep the
/// removal when a feasible solution with strictly fewer shots results.
/// Candidates are screened by the cost of their removal (cheap-to-lose
/// shots first) and at most `SWEEP_CANDIDATES` are attempted per sweep, so
/// the pass stays a small multiple of one refinement run.
///
/// Infeasible inputs are returned unchanged — reduction only makes sense
/// from a feasible solution.
///
/// Runs against an absolute `deadline` (the sweep stops between
/// candidate removals once it passes) and an explicit
/// [`FractureScratch`] arena (see `refine_until_with`): the screening
/// map and every bounded refinement run inside it recycle the same
/// buffers.
///
/// Counts its removal tries in `fracture.reduce.attempts`, the tries it
/// kept in `fracture.reduce.accepted`, and the refinement iterations spent
/// on tries it discarded in `fracture.reduce.rejected_iterations`.
pub fn reduce_shots(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    shots: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    let _span = maskfrac_obs::span("fracture.reduce");
    const SWEEP_CANDIDATES: usize = 6;
    let budget_cfg = FractureConfig {
        max_iterations: 120,
        max_plateau_restarts: 2,
        deadline: None, // the absolute deadline below governs
        ..cfg.clone()
    };

    fn summarize(
        cls: &Classification,
        model: &ExposureModel,
        shots: &[Rect],
        scratch: &mut FractureScratch,
    ) -> FailureSummary {
        let mut map = IntensityMap::with_values(
            model.clone(),
            cls.frame(),
            scratch.take_map_values(cls.frame().len()),
        );
        for s in shots {
            map.add_shot(s);
        }
        let summary = evaluate(cls, &map);
        scratch.put_map_values(map.into_values());
        summary
    }

    let mut current = shots;
    let mut summary = summarize(cls, model, &current, scratch);
    let mut total_iterations = 0usize;
    let (mut attempts, mut accepted, mut rejected_iterations) = (0u64, 0u64, 0u64);
    let mut deadline_hit = false;
    if !summary.is_feasible() {
        return RefineOutcome {
            shots: current,
            summary,
            iterations: 0,
            history: Vec::new(),
            deadline_hit: false,
        };
    }

    loop {
        if current.len() <= 1 {
            break;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            deadline_hit = true;
            break;
        }
        // Screen: cost incurred by removing each shot from the current map.
        let mut map = IntensityMap::with_values(
            model.clone(),
            cls.frame(),
            scratch.take_map_values(cls.frame().len()),
        );
        for s in &current {
            map.add_shot(s);
        }
        let mut scored: Vec<(f64, usize)> = current
            .iter()
            .enumerate()
            .map(|(i, s)| (cost_delta_for_strip(cls, &map, s, -1.0), i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scratch.put_map_values(map.into_values());

        let mut improved = false;
        for &(_, i) in scored.iter().take(SWEEP_CANDIDATES) {
            let mut candidate = current.clone();
            candidate.remove(i);
            let outcome = refine_until_with(cls, model, &budget_cfg, candidate, deadline, scratch);
            total_iterations += outcome.iterations;
            attempts += 1;
            if outcome.summary.is_feasible() && outcome.shots.len() < current.len() {
                current = outcome.shots;
                summary = outcome.summary;
                accepted += 1;
                improved = true;
                break;
            }
            rejected_iterations += outcome.iterations as u64;
        }
        if !improved {
            break;
        }
    }
    maskfrac_obs::counter!("fracture.reduce.attempts").add(attempts);
    maskfrac_obs::counter!("fracture.reduce.accepted").add(accepted);
    maskfrac_obs::counter!("fracture.reduce.rejected_iterations").add(rejected_iterations);

    RefineOutcome {
        shots: current,
        summary,
        iterations: total_iterations,
        history: Vec::new(),
        deadline_hit,
    }
}

/// The swept strip and intensity sign for moving `edge` of `shot` by
/// `delta` nm (nonzero). `sign = +1` means the strip's intensity is added
/// (the shot grew), `−1` that it is removed (the shot shrank).
fn strip_for(shot: &Rect, edge: Edge, delta: i64) -> Option<(Rect, f64)> {
    debug_assert!(delta != 0);
    let d = delta.abs();
    let (strip, sign) = match (edge, delta > 0) {
        (Edge::Left, false) => (Rect::new(shot.x0() - d, shot.y0(), shot.x0(), shot.y1()), 1.0),
        (Edge::Left, true) => (Rect::new(shot.x0(), shot.y0(), shot.x0() + d, shot.y1()), -1.0),
        (Edge::Right, true) => (Rect::new(shot.x1(), shot.y0(), shot.x1() + d, shot.y1()), 1.0),
        (Edge::Right, false) => (Rect::new(shot.x1() - d, shot.y0(), shot.x1(), shot.y1()), -1.0),
        (Edge::Bottom, false) => (Rect::new(shot.x0(), shot.y0() - d, shot.x1(), shot.y0()), 1.0),
        (Edge::Bottom, true) => (Rect::new(shot.x0(), shot.y0(), shot.x1(), shot.y0() + d), -1.0),
        (Edge::Top, true) => (Rect::new(shot.x0(), shot.y1(), shot.x1(), shot.y1() + d), 1.0),
        (Edge::Top, false) => (Rect::new(shot.x0(), shot.y1() - d, shot.x1(), shot.y1()), -1.0),
    };
    strip.map(|s| (s, sign))
}

/// Euclidean distance between two closed rectangles (0 if they touch).
fn rect_distance(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.x0() - b.x1()).max(b.x0() - a.x1()).max(0) as f64;
    let dy = (a.y0() - b.y1()).max(b.y0() - a.y1()).max(0) as f64;
    (dx * dx + dy * dy).sqrt()
}

/// One scored candidate move: shift `edge` by `delta`, sweeping `strip`
/// with intensity `sign`.
#[derive(Debug, Clone, Copy)]
struct ScoredMove {
    delta_cost: f64,
    edge: Edge,
    delta: i64,
    strip: Rect,
    sign: f64,
}

/// Tie-break rank of an edge, matching the [`Edge::ALL`] generation
/// order so the explicit sort key reproduces the legacy stable sort.
fn edge_rank(edge: Edge) -> u8 {
    match edge {
        Edge::Left => 0,
        Edge::Right => 1,
        Edge::Bottom => 2,
        Edge::Top => 3,
    }
}

/// Work tally of [`score_shot`]: strips scored exactly, strips the
/// failing-tile screen proved non-improving without scoring, and pixels
/// whose cost term the scorer computed.
#[derive(Debug, Default, Clone, Copy)]
struct ScoreCounts {
    scored: u64,
    screened: u64,
    px_scanned: u64,
}

impl std::ops::AddAssign for ScoreCounts {
    fn add_assign(&mut self, other: Self) {
        self.scored += other.scored;
        self.screened += other.screened;
        self.px_scanned += other.px_scanned;
    }
}

/// Scores the eight ±`stride` edge moves of one shot against the current
/// map, returning the improving ones plus the work tally.
///
/// With a `screen`, candidates that [`ViolationTracker::may_improve`]
/// rules out are skipped unscored (they could never pass the
/// `dc < -1e-9` bar), and the rest are scored by
/// [`ViolationTracker::score_strip`] (bit-identical to
/// [`cost_delta_for_strip`]), so the returned moves are the same either
/// way.
fn score_shot(
    cls: &Classification,
    map: &IntensityMap,
    screen: Option<&ViolationTracker>,
    shot: &Rect,
    cfg: &FractureConfig,
    stride: i64,
) -> (Vec<ScoredMove>, ScoreCounts) {
    let mut moves = Vec::new();
    let mut counts = ScoreCounts::default();
    for edge in Edge::ALL {
        for delta in [-stride, stride] {
            let new_pos = shot.edge(edge) + delta;
            let Some(moved) = shot.with_edge(edge, new_pos) else {
                continue;
            };
            if moved.width() < cfg.min_shot_size || moved.height() < cfg.min_shot_size {
                continue;
            }
            let Some((strip, sign)) = strip_for(shot, edge, delta) else {
                continue;
            };
            let dc = match screen {
                Some(t) if !t.may_improve(map, &strip, sign) => {
                    counts.screened += 1;
                    continue;
                }
                Some(t) => {
                    let score = t.score_strip(cls, map, &strip, sign);
                    counts.px_scanned += score.px_scanned;
                    score.delta
                }
                None => cost_delta_for_strip(cls, map, &strip, sign),
            };
            counts.scored += 1;
            if dc < -1e-9 {
                moves.push(ScoredMove {
                    delta_cost: dc,
                    edge,
                    delta,
                    strip,
                    sign,
                });
            }
        }
    }
    (moves, counts)
}

/// Cached candidate moves of one shot, one slot per stride (±1, ±2 nm).
#[derive(Debug, Default, Clone)]
struct ShotCache {
    valid: [bool; 2],
    moves: [Vec<ScoredMove>; 2],
}

impl ShotCache {
    fn invalidate(&mut self) {
        self.valid = [false, false];
    }

    fn any_valid(&self) -> bool {
        self.valid[0] || self.valid[1]
    }
}

/// Recyclable spine of a [`GreedyEngine`]: the per-shot candidate cache
/// plus the per-pass work lists. Held by
/// [`FractureScratch`](crate::FractureScratch) between shapes so the
/// engine's dominant allocations (one `ShotCache` per shot, two
/// `Vec<ScoredMove>` slots each) amortize across a layout.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    cache: Vec<ShotCache>,
    todo: Vec<usize>,
    candidates: Vec<(usize, usize)>,
}

/// Incremental greedy shot-edge adjustment (paper §4.1) with a
/// dirty-window candidate cache.
///
/// A candidate's score reads only map values inside its strip's support
/// window, and an accepted move changes only map values inside *its*
/// strip's support window — so a cached score stays exact until a move
/// lands within two support radii of the cached shot. The engine keeps
/// every shot's improving moves between passes, re-scores only shots in
/// that dirty neighborhood, and accepts best-first under the paper's 2σ
/// blocking rule. Acceptance order is made explicit — stable by
/// `(delta_cost, shot_index, edge, delta)` — so incremental and
/// full-rescan runs produce byte-identical shot lists.
struct GreedyEngine {
    cache: Vec<ShotCache>,
    todo: Vec<usize>,
    candidates: Vec<(usize, usize)>,
}

#[cfg(test)]
thread_local! {
    /// While set, every greedy pass on this thread re-scores every
    /// candidate of every shot over its whole window, with no
    /// failing-tile screen: the full-rescan reference engine the parity
    /// tests compare the dirty-window cache, the screen and live-pixel
    /// scoring against.
    static FULL_RESCAN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl GreedyEngine {
    fn new(shot_count: usize) -> Self {
        GreedyEngine::from_scratch(shot_count, EngineScratch::default())
    }

    /// Builds an engine on top of a recycled [`EngineScratch`] spine. The
    /// scratch contents are treated as garbage (everything is reset); only
    /// the allocations are reused.
    fn from_scratch(shot_count: usize, scratch: EngineScratch) -> Self {
        let mut engine = GreedyEngine {
            cache: scratch.cache,
            todo: scratch.todo,
            candidates: scratch.candidates,
        };
        engine.reset(shot_count);
        engine
    }

    /// Tears the engine down to its reusable spine (see [`EngineScratch`]).
    fn into_scratch(self) -> EngineScratch {
        EngineScratch {
            cache: self.cache,
            todo: self.todo,
            candidates: self.candidates,
        }
    }

    /// Drops every cached score and resizes to `shot_count` entries —
    /// required after any structural change (add/remove/merge), which
    /// both rewrites the map at scale and shuffles shot indices.
    ///
    /// Entries are reset in place rather than rebuilt so the per-shot
    /// `Vec<ScoredMove>` allocations survive: `moves` is cleared, not
    /// dropped, and the spine only grows.
    fn reset(&mut self, shot_count: usize) {
        if self.cache.len() > shot_count {
            self.cache.truncate(shot_count);
        }
        for entry in &mut self.cache {
            entry.invalidate();
            entry.moves[0].clear();
            entry.moves[1].clear();
        }
        self.cache.resize_with(shot_count, ShotCache::default);
    }

    /// Marks every cached score stale (e.g. after a whole-solution bias).
    fn invalidate_all(&mut self) {
        for entry in &mut self.cache {
            entry.invalidate();
        }
    }

    /// One greedy pass at the given stride. Returns whether any edge
    /// moved. Every accepted move is applied through `tracker`, keeping
    /// the map and the running failure summary in lockstep.
    fn pass(
        &mut self,
        cls: &Classification,
        map: &mut IntensityMap,
        tracker: &mut ViolationTracker,
        shots: &mut [Rect],
        cfg: &FractureConfig,
        stride: i64,
    ) -> bool {
        let sidx = if stride <= 1 { 0 } else { 1 };
        // The failing-tile screen reads the tracker, which is in lockstep
        // with `map`.
        let screen = Some(&*tracker);
        #[cfg(test)]
        let screen = if FULL_RESCAN.with(std::cell::Cell::get) {
            self.invalidate_all();
            None
        } else {
            screen
        };
        if self.cache.len() != shots.len() {
            self.reset(shots.len());
        }

        // Re-score stale shots only; a shot outside every dirty window
        // has bit-identical map values under its candidate strips, so
        // its cached improving moves are still exact.
        let mut todo = std::mem::take(&mut self.todo);
        todo.clear();
        todo.extend((0..shots.len()).filter(|&i| !self.cache[i].valid[sidx]));
        maskfrac_obs::counter!("refine.candidates.skipped")
            .add(((shots.len() - todo.len()) * Edge::ALL.len() * 2) as u64);
        let mut counts = ScoreCounts::default();
        let mut improving = 0u64;
        for &i in &todo {
            let (moves, n) = score_shot(cls, map, screen, &shots[i], cfg, stride);
            counts += n;
            improving += moves.len() as u64;
            self.cache[i].moves[sidx] = moves;
            self.cache[i].valid[sidx] = true;
        }
        maskfrac_obs::counter!("refine.candidates.scored").add(counts.scored);
        maskfrac_obs::counter!("refine.candidates.screened").add(counts.screened);
        maskfrac_obs::counter!("refine.candidates.improving").add(improving);
        maskfrac_obs::counter!("refine.window.px_scanned").add(counts.px_scanned);
        self.todo = todo;

        // Deterministic acceptance order over all cached improving moves.
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for (i, entry) in self.cache.iter().enumerate() {
            for k in 0..entry.moves[sidx].len() {
                candidates.push((i, k));
            }
        }
        candidates.sort_by(|&(ia, ka), &(ib, kb)| {
            let a = &self.cache[ia].moves[sidx][ka];
            let b = &self.cache[ib].moves[sidx][kb];
            a.delta_cost
                .total_cmp(&b.delta_cost)
                .then(ia.cmp(&ib))
                .then(edge_rank(a.edge).cmp(&edge_rank(b.edge)))
                .then(a.delta.cmp(&b.delta))
        });

        // Accept best-first; block any edge whose strip comes within 2σ
        // of an accepted strip (paper §4.1: avoids cycling and keeps the
        // pre-computed deltas valid, since intensity interactions vanish
        // beyond 2σ).
        let blocking = 2.0 * map.model().sigma();
        let mut accepted: Vec<Rect> = Vec::new();
        let mut mutated: Vec<usize> = Vec::new();
        for &(i, k) in &candidates {
            // Desync fix: once a shot has moved in this pass, its other
            // pending candidates carry strips computed from the pre-move
            // geometry, which may no longer be the region the edge would
            // sweep. Skip them; the shot lands in the dirty set and its
            // surviving moves are re-scored next pass.
            if mutated.contains(&i) {
                continue;
            }
            let m = self.cache[i].moves[sidx][k];
            if accepted.iter().any(|r| rect_distance(r, &m.strip) < blocking) {
                continue;
            }
            let shot = shots[i];
            let Some(moved) = shot.with_edge(m.edge, shot.edge(m.edge) + m.delta) else {
                continue;
            };
            shots[i] = moved;
            tracker.apply(cls, map, &m.strip, m.sign);
            accepted.push(m.strip);
            mutated.push(i);
        }
        self.candidates = candidates;
        tracker.publish_px_tracked();

        // Dirty-window invalidation: a move changes intensities within
        // its strip's support window; a cached score reads within its
        // own. Two support radii (padded by the ±2 nm candidate reach)
        // therefore bound all interaction — everything farther keeps its
        // cache, which is what makes the pass incremental.
        if !accepted.is_empty() {
            let radius = 2.0 * map.model().support_radius() + 8.0;
            let mut requeues = 0u64;
            for (i, shot) in shots.iter().enumerate() {
                if self.cache[i].any_valid()
                    && accepted.iter().any(|r| rect_distance(r, shot) <= radius)
                {
                    requeues += 1;
                    self.cache[i].invalidate();
                }
            }
            maskfrac_obs::counter!("refine.dirty.requeues").add(requeues);
        }
        !accepted.is_empty()
    }
}

/// Uniform bias of all shot edges (paper §4.2): grow everything one pixel
/// when under-exposure dominates, shrink when over-exposure dominates
/// (skipping edges whose shot would fall below `Lmin`).
///
/// Growth is clamped to the classification frame padded by the kernel's
/// support: intensity past that boundary cannot reach any classified
/// pixel, so growing into it only inflates geometry that nothing scores.
/// The clamp is per-side and never shrinks, so shots that legitimately
/// hang past the frame (support tails) keep their extent.
fn bias_all_shots(
    cls: &Classification,
    map: &mut IntensityMap,
    tracker: &mut ViolationTracker,
    shots: &mut [Rect],
    cfg: &FractureConfig,
    summary: &FailureSummary,
) {
    let grow = summary.on_fails >= summary.off_fails;
    let frame = cls.frame();
    let pad = map.model().support_radius_px();
    let origin = frame.origin();
    let bound_x0 = origin.x - pad;
    let bound_y0 = origin.y - pad;
    let bound_x1 = origin.x + frame.width() as i64 + pad;
    let bound_y1 = origin.y + frame.height() as i64 + pad;
    for shot in shots.iter_mut() {
        let old = *shot;
        let new = if grow {
            // Per-side growth clamped to the padded frame, monotone: a
            // side already past the bound stays put rather than snapping
            // back.
            let x0 = (old.x0() - 1).max(bound_x0).min(old.x0());
            let y0 = (old.y0() - 1).max(bound_y0).min(old.y0());
            let x1 = (old.x1() + 1).min(bound_x1).max(old.x1());
            let y1 = (old.y1() + 1).min(bound_y1).max(old.y1());
            Rect::new(x0, y0, x1, y1).unwrap_or(old)
        } else {
            let shrink_x = old.width() - 2 >= cfg.min_shot_size;
            let shrink_y = old.height() - 2 >= cfg.min_shot_size;
            let x0 = old.x0() + i64::from(shrink_x);
            let x1 = old.x1() - i64::from(shrink_x);
            let y0 = old.y0() + i64::from(shrink_y);
            let y1 = old.y1() - i64::from(shrink_y);
            Rect::new(x0, y0, x1, y1).unwrap_or(old)
        };
        if new != old {
            tracker.replace(cls, map, &old, &new);
            *shot = new;
        }
    }
    tracker.publish_px_tracked();
}

/// Adds one shot over the largest cluster of failing `Pon` pixels
/// (paper §4.3). Returns whether a shot was added.
///
/// Public because the cover-style baselines (GSC, MP) use the same move as
/// their completion pass once their candidate pools run dry.
pub fn add_shot(
    cls: &Classification,
    map: &mut IntensityMap,
    shots: &mut Vec<Rect>,
    cfg: &FractureConfig,
) -> bool {
    let (on_fail, _) = fail_bitmaps(cls, map);
    if on_fail.count_ones() == 0 {
        return false;
    }
    let origin = cls.frame().origin();
    let comps = label_components(&on_fail);

    let mut best: Option<(usize, Rect)> = None;
    for comp in &comps {
        // Component bbox in pixel space -> absolute nm. A malformed bbox
        // cannot name a placement; skip the component rather than panic.
        let Some(mut rect) = Rect::new(
            origin.x + comp.bbox.x0(),
            origin.y + comp.bbox.y0(),
            origin.x + comp.bbox.x1(),
            origin.y + comp.bbox.y1(),
        ) else {
            continue;
        };
        // Grow to the minimum shot size, centred.
        if rect.width() < cfg.min_shot_size {
            let grow = cfg.min_shot_size - rect.width();
            let Some(grown) = Rect::new(
                rect.x0() - grow / 2,
                rect.y0(),
                rect.x0() - grow / 2 + cfg.min_shot_size,
                rect.y1(),
            ) else {
                continue;
            };
            rect = grown;
        }
        if rect.height() < cfg.min_shot_size {
            let grow = cfg.min_shot_size - rect.height();
            let Some(grown) = Rect::new(
                rect.x0(),
                rect.y0() - grow / 2,
                rect.x1(),
                rect.y0() - grow / 2 + cfg.min_shot_size,
            ) else {
                continue;
            };
            rect = grown;
        }
        // Count failing Pon pixels the grown bbox covers.
        let frame = cls.frame();
        let xs = frame.clamp_x_range(rect.x0() as f64, rect.x1() as f64);
        let ys = frame.clamp_y_range(rect.y0() as f64, rect.y1() as f64);
        let mut covered = 0usize;
        for iy in ys {
            for ix in xs.clone() {
                if on_fail.get(ix, iy) {
                    covered += 1;
                }
            }
        }
        if best.as_ref().is_none_or(|(c, _)| covered > *c) {
            best = Some((covered, rect));
        }
    }
    if let Some((_, rect)) = best {
        // The grown bbox can slide while still covering the component:
        // pick the alignment with the least predicted cost (it trades the
        // fixed on-fail gain against collateral Poff exposure).
        let mut placed = rect;
        let mut best_dc = cost_delta_for_strip(cls, map, &rect, 1.0);
        for dx in [-2i64, 0, 2] {
            for dy in [-2i64, 0, 2] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = rect.translate(maskfrac_geom::Point::new(dx, dy));
                let dc = cost_delta_for_strip(cls, map, &cand, 1.0);
                if dc < best_dc {
                    best_dc = dc;
                    placed = cand;
                }
            }
        }
        // When every bbox placement is predicted harmful (an L- or
        // ring-shaped failing region whose bbox covers exposed area),
        // offer the tolerant slab decomposition of the failing pixels —
        // slabs hug the region without covering the hole.
        if best_dc >= 0.0 {
            let sigma_px = map.model().sigma().round() as i64;
            for slab in maskfrac_geom::partition::partition_slabs_tolerant(
                &on_fail,
                cls.frame(),
                sigma_px,
            ) {
                let Some(grown) = Rect::new(
                    slab.x0(),
                    slab.y0(),
                    slab.x1().max(slab.x0() + cfg.min_shot_size),
                    slab.y1().max(slab.y0() + cfg.min_shot_size),
                ) else {
                    continue;
                };
                let dc = cost_delta_for_strip(cls, map, &grown, 1.0);
                if dc < best_dc {
                    best_dc = dc;
                    placed = grown;
                }
            }
        }
        shots.push(placed);
        map.add_shot(&placed);
        return true;
    }
    false
}

/// Removes the shot blamed for the most failing `Poff` pixels within `σ`
/// (paper §4.4).
fn remove_shot(cls: &Classification, map: &mut IntensityMap, shots: &mut Vec<Rect>) {
    if shots.is_empty() {
        return;
    }
    let (_, off_fail) = fail_bitmaps(cls, map);
    if off_fail.count_ones() == 0 {
        return;
    }
    let sigma = map.model().sigma();
    let frame = cls.frame();
    let fail_points: Vec<(f64, f64)> = off_fail
        .iter_set()
        .map(|(ix, iy)| frame.pixel_center(ix, iy))
        .collect();
    let Some((worst, _)) = shots
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let near = fail_points
                .iter()
                .filter(|&&(x, y)| s.distance_to_point_f64(x, y) < sigma)
                .count();
            (i, near)
        })
        .max_by_key(|&(i, near)| (near, usize::MAX - i)) // ties: earliest
    else {
        return;
    };
    let removed = shots.remove(worst);
    map.remove_shot(&removed);
}

/// Minimum inside fraction for an extension-merge of two aligned shots
/// (paper §4.5: 90 %).
const MERGE_OVERLAP_FRACTION: f64 = 0.9;

/// Merges aligned or redundant shot pairs (paper §4.5, Fig. 5). Repeats
/// until no pair merges.
fn merge_shots(
    cls: &Classification,
    map: &mut IntensityMap,
    shots: &mut Vec<Rect>,
    cfg: &FractureConfig,
) {
    let gamma = cfg.gamma.round() as i64;
    loop {
        let mut merged: Option<(usize, usize, Option<Rect>)> = None;
        'outer: for i in 0..shots.len() {
            for j in (i + 1)..shots.len() {
                let (a, b) = (shots[i], shots[j]);
                // Redundant: one inside the other.
                if a.contains_rect(&b) {
                    merged = Some((i, j, None));
                    break 'outer;
                }
                if b.contains_rect(&a) {
                    merged = Some((j, i, None));
                    break 'outer;
                }
                // Aligned x-extents: merge by vertical extension.
                let x_aligned = (a.x0() - b.x0()).abs() <= gamma && (a.x1() - b.x1()).abs() <= gamma;
                let y_aligned = (a.y0() - b.y0()).abs() <= gamma && (a.y1() - b.y1()).abs() <= gamma;
                if x_aligned || y_aligned {
                    let candidate = a.union_bbox(&b);
                    if crate::approx::fraction_inside_target(cls, &candidate)
                        >= MERGE_OVERLAP_FRACTION
                    {
                        merged = Some((i, j, Some(candidate)));
                        break 'outer;
                    }
                }
            }
        }
        match merged {
            Some((keep, drop, Some(candidate))) => {
                let (a, b) = (shots[keep], shots[drop]);
                map.remove_shot(&a);
                map.remove_shot(&b);
                map.add_shot(&candidate);
                shots[keep] = candidate;
                shots.remove(drop);
            }
            Some((_, drop, None)) => {
                let removed = shots.remove(drop);
                map.remove_shot(&removed);
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::{Point, Polygon};

    fn setup(target: &Polygon) -> (Classification, ExposureModel, FractureConfig) {
        let cfg = FractureConfig::default();
        let model = cfg.model();
        let cls = Classification::build(target, cfg.gamma, model.support_radius_px() + 2);
        (cls, model, cfg)
    }

    fn square(side: i64) -> Polygon {
        Polygon::from_rect(Rect::new(0, 0, side, side).unwrap())
    }

    /// Runs `f` with every greedy pass in full-rescan mode (every
    /// candidate scored, none screened).
    fn full_rescan<R>(f: impl FnOnce() -> R) -> R {
        FULL_RESCAN.with(|flag| flag.set(true));
        let out = f();
        FULL_RESCAN.with(|flag| flag.set(false));
        out
    }

    #[test]
    fn exact_initial_solution_converges_immediately() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(0, 0, 50, 50).unwrap()]);
        assert!(out.summary.is_feasible());
        assert_eq!(out.shots.len(), 1);
        assert_eq!(out.iterations, 0, "already feasible");
    }

    #[test]
    fn slightly_offset_shot_is_pulled_onto_target() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(4, -4, 54, 46).unwrap()]);
        assert!(
            out.summary.is_feasible(),
            "edge adjustment must fix a 4 nm offset: {:?}",
            out.summary
        );
        assert_eq!(out.shots.len(), 1);
        let s = out.shots[0];
        assert!((s.x0()).abs() <= 2 && (s.y1() - 50).abs() <= 2, "{s}");
    }

    #[test]
    fn empty_initial_solution_bootstraps_via_add_shot() {
        let target = square(40);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, Vec::new());
        assert!(
            out.summary.is_feasible(),
            "add-shot must bootstrap: {:?}",
            out.summary
        );
        assert_eq!(out.shots.len(), 1);
    }

    #[test]
    fn oversized_shot_is_shrunk_or_removed() {
        let target = square(40);
        let (cls, model, cfg) = setup(&target);
        let out = refine(
            &cls,
            &model,
            &cfg,
            vec![Rect::new(-15, -15, 55, 55).unwrap()],
        );
        assert!(out.summary.is_feasible(), "{:?}", out.summary);
    }

    #[test]
    fn l_shape_from_two_overlapping_shots() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let (cls, model, cfg) = setup(&target);
        let initial = vec![
            Rect::new(0, 0, 78, 28).unwrap(),
            Rect::new(0, 0, 28, 78).unwrap(),
        ];
        let out = refine(&cls, &model, &cfg, initial);
        assert!(out.summary.is_feasible(), "{:?}", out.summary);
        assert_eq!(out.shots.len(), 2, "no extra shots needed: {:?}", out.shots);
    }

    #[test]
    fn all_shots_respect_min_size() {
        let target = square(30);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(5, 5, 25, 25).unwrap()]);
        for s in &out.shots {
            assert!(s.width() >= cfg.min_shot_size);
            assert!(s.height() >= cfg.min_shot_size);
        }
    }

    #[test]
    fn history_is_recorded() {
        let target = square(40);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(3, 3, 43, 43).unwrap()]);
        assert!(!out.history.is_empty());
        assert_eq!(out.history[0].shots, 1);
        assert!(out.history[0].cost > 0.0);
    }

    #[test]
    fn strip_for_all_edges() {
        let s = Rect::new(10, 10, 30, 30).unwrap();
        let (strip, sign) = strip_for(&s, Edge::Left, -1).unwrap();
        assert_eq!(strip, Rect::new(9, 10, 10, 30).unwrap());
        assert_eq!(sign, 1.0);
        let (strip, sign) = strip_for(&s, Edge::Top, -1).unwrap();
        assert_eq!(strip, Rect::new(10, 29, 30, 30).unwrap());
        assert_eq!(sign, -1.0);
        let (strip, sign) = strip_for(&s, Edge::Right, 1).unwrap();
        assert_eq!(strip, Rect::new(30, 10, 31, 30).unwrap());
        assert_eq!(sign, 1.0);
        let (strip, sign) = strip_for(&s, Edge::Bottom, 1).unwrap();
        assert_eq!(strip, Rect::new(10, 10, 30, 11).unwrap());
        assert_eq!(sign, -1.0);
    }

    #[test]
    fn rect_distance_cases() {
        let a = Rect::new(0, 0, 10, 10).unwrap();
        assert_eq!(rect_distance(&a, &Rect::new(5, 5, 20, 20).unwrap()), 0.0);
        assert_eq!(rect_distance(&a, &Rect::new(13, 0, 20, 10).unwrap()), 3.0);
        assert_eq!(rect_distance(&a, &Rect::new(13, 14, 20, 20).unwrap()), 5.0);
    }

    #[test]
    fn merge_absorbs_contained_shot() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let mut shots = vec![
            Rect::new(0, 0, 50, 50).unwrap(),
            Rect::new(10, 10, 30, 30).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        merge_shots(&cls, &mut map, &mut shots, &cfg);
        assert_eq!(shots, vec![Rect::new(0, 0, 50, 50).unwrap()]);
    }

    #[test]
    fn merge_extends_aligned_shots() {
        let target = square(60);
        let (cls, model, cfg) = setup(&target);
        // Two x-aligned shots stacked with a gap, union mostly inside.
        let mut shots = vec![
            Rect::new(0, 0, 60, 28).unwrap(),
            Rect::new(0, 32, 60, 60).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        merge_shots(&cls, &mut map, &mut shots, &cfg);
        assert_eq!(shots, vec![Rect::new(0, 0, 60, 60).unwrap()]);
    }

    #[test]
    fn merge_rejects_extension_outside_target() {
        // Two aligned shots in separate arms of a U: union crosses the gap.
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(90, 0),
            Point::new(90, 90),
            Point::new(60, 90),
            Point::new(60, 30),
            Point::new(30, 30),
            Point::new(30, 90),
            Point::new(0, 90),
        ])
        .unwrap();
        let (cls, model, cfg) = setup(&target);
        let mut shots = vec![
            Rect::new(0, 40, 28, 88).unwrap(),
            Rect::new(62, 40, 88, 88).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        let before = shots.clone();
        merge_shots(&cls, &mut map, &mut shots, &cfg);
        assert_eq!(shots, before, "merging across the U gap would expose Poff");
    }

    #[test]
    fn map_stays_consistent_through_refinement() {
        let target = square(45);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(2, 2, 40, 40).unwrap()]);
        // Re-simulate the returned shots from scratch; summaries must agree.
        let mut fresh = IntensityMap::new(model, cls.frame());
        for s in &out.shots {
            fresh.add_shot(s);
        }
        let resim = evaluate(&cls, &fresh);
        assert_eq!(resim.fail_count(), out.summary.fail_count());
        assert!((resim.cost - out.summary.cost).abs() < 1e-6);
    }

    /// Regression test for the stale-candidate desync: a wide shot offset
    /// so that *both* its left and right edges improve. The strips are far
    /// apart (≫ 2σ), so the old engine accepted both moves in one pass —
    /// the second against a strip computed from geometry the first move
    /// had already changed. The engine must land exactly one move per shot
    /// per pass and leave the map bit-consistent with a from-scratch
    /// rebuild of the final shot list.
    #[test]
    fn accepted_move_invalidates_sibling_candidates_of_same_shot() {
        let target = Polygon::from_rect(Rect::new(0, 0, 200, 40).unwrap());
        let (cls, model, cfg) = setup(&target);
        let mut shots = vec![Rect::new(4, 0, 204, 40).unwrap()];
        let mut map = IntensityMap::new(model, cls.frame());
        map.add_shot(&shots[0]);
        let mut tracker = ViolationTracker::new(&cls, &map);
        let mut engine = GreedyEngine::new(shots.len());

        let before = shots[0];
        assert!(
            engine.pass(&cls, &mut map, &mut tracker, &mut shots, &cfg, 1),
            "both edges are 4 nm off; a move must land"
        );
        let after = shots[0];
        let edges_moved = usize::from(before.x0() != after.x0())
            + usize::from(before.x1() != after.x1())
            + usize::from(before.y0() != after.y0())
            + usize::from(before.y1() != after.y1());
        assert_eq!(
            edges_moved, 1,
            "one accepted move per shot per pass: {before} -> {after}"
        );

        // Run the pass to a fixed point; the deferred sibling moves land
        // on subsequent passes from re-scored (fresh) geometry.
        let mut guard = 0;
        while engine.pass(&cls, &mut map, &mut tracker, &mut shots, &cfg, 1) {
            guard += 1;
            assert!(guard < 50, "pass must reach a fixed point");
        }
        // Both offsets repaired across passes, to within the γ = 2 nm
        // don't-care band (inside it, no constrained pixel improves).
        let s = shots[0];
        assert!(
            s.x0().abs() <= 2 && (s.x1() - 200).abs() <= 2,
            "both offsets repaired across passes: {s}"
        );
        assert_eq!(
            tracker.summary().fail_count(),
            0,
            "solution is feasible: {:?}",
            tracker.summary()
        );

        // The incrementally maintained map matches a from-scratch rebuild
        // of the final shot list, and the running summary matches a full
        // re-evaluation. The map bound is the kernel-tail mass: the model
        // integrates an *untruncated* erf while updates clamp to the
        // ±support window, so each strip op leaves up to erfc(3)/2 ≈
        // 1.1e-5 outside its window (true of plain add_shot/remove_shot
        // as well). The desync this guards against misplaces a whole
        // strip — an O(0.1) error, four orders of magnitude above this.
        let mut fresh = map.clone();
        fresh.rebuild(shots.iter());
        assert!(map.max_abs_diff(&fresh) <= 2e-5, "{}", map.max_abs_diff(&fresh));
        let full = evaluate(&cls, &map);
        assert_eq!(tracker.summary().on_fails, full.on_fails);
        assert_eq!(tracker.summary().off_fails, full.off_fails);
        assert!((tracker.summary().cost - full.cost).abs() < 1e-9);
    }

    /// The incremental engine must produce exactly the shot list of the
    /// full-rescan reference path.
    #[test]
    fn incremental_and_full_rescan_paths_are_byte_identical() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let (cls, model, base) = setup(&target);
        let initial = vec![
            Rect::new(3, -3, 81, 25).unwrap(),
            Rect::new(-2, 2, 26, 80).unwrap(),
        ];
        let run = || refine(&cls, &model, &base, initial.clone());
        let reference = full_rescan(run);
        let out = run();
        assert_eq!(out.shots, reference.shots, "shot lists diverged");
        assert_eq!(out.iterations, reference.iterations);
        assert_eq!(out.summary.on_fails, reference.summary.on_fails);
        assert_eq!(out.summary.off_fails, reference.summary.off_fails);
    }

    /// The dirty-window cache, the failing-tile screen and live-pixel
    /// scoring are pure optimizations: on the real clip suite, end to end
    /// through refinement, the engine must give exactly the shot list of
    /// the full-rescan reference.
    #[test]
    fn engines_agree_bit_for_bit_on_clip_suite() {
        // Bounded iterations keep the suite fast; parity must hold at any
        // cut point, so a tighter budget loses no coverage.
        let base = FractureConfig {
            max_iterations: 160,
            reduction_sweep: false,
            ..FractureConfig::default()
        };
        let fracturer = crate::ModelBasedFracturer::new(base.clone());
        for clip in maskfrac_shapes::ilt_suite() {
            let cls = fracturer.classify(&clip.polygon);
            let approx = crate::approximate_fracture(
                &clip.polygon,
                &cls,
                fracturer.model(),
                &base,
                fracturer.lth(),
            );
            let run = || refine(&cls, fracturer.model(), &base, approx.shots.clone());
            let want = full_rescan(run);
            let out = run();
            assert_eq!(
                out.shots, want.shots,
                "{}: engine diverged from the full-rescan reference",
                clip.id
            );
            assert_eq!(out.iterations, want.iterations, "{}", clip.id);
            assert_eq!(out.summary.fail_count(), want.summary.fail_count(), "{}", clip.id);
        }
    }

    /// Biasing must honor the frame clamp: growth stops at the pixel frame
    /// plus the kernel support (beyond which no classified pixel can see
    /// the shot), and a side already past that bound never snaps back.
    #[test]
    fn bias_growth_clamps_to_frame_support() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let frame = cls.frame();
        let pad = model.support_radius_px();
        let bound_x0 = frame.origin().x - pad;
        // One shot about to cross the clamp, one already past it.
        let near = Rect::new(bound_x0 + 1, 0, 40, 40).unwrap();
        let past = Rect::new(bound_x0 - 5, 0, 30, 30).unwrap();
        let mut shots = vec![near, past];
        let mut map = IntensityMap::new(model, frame);
        for s in &shots {
            map.add_shot(s);
        }
        let mut tracker = ViolationTracker::new(&cls, &map);
        // Force the grow branch.
        let summary = FailureSummary { on_fails: 10, off_fails: 0, cost: 1.0 };
        bias_all_shots(&cls, &mut map, &mut tracker, &mut shots, &cfg, &summary);
        assert_eq!(shots[0].x0(), bound_x0, "grew one step onto the bound");
        assert_eq!(shots[0].x1(), 41, "interior sides grow normally");
        assert_eq!(shots[1].x0(), bound_x0 - 5, "out-of-bound side stays put");
        assert_eq!(shots[1].x1(), 31);

        bias_all_shots(&cls, &mut map, &mut tracker, &mut shots, &cfg, &summary);
        assert_eq!(shots[0].x0(), bound_x0, "clamped side cannot leave the bound");

        // Biasing through the tracker keeps map and summary exact.
        let mut fresh = map.clone();
        fresh.rebuild(shots.iter());
        assert!(map.max_abs_diff(&fresh) <= 1e-9);
        let full = evaluate(&cls, &map);
        assert_eq!(tracker.summary().on_fails, full.on_fails);
        assert_eq!(tracker.summary().off_fails, full.off_fails);
    }

    /// The failing-tile screen only drops candidates that cannot improve:
    /// screened and unscreened scoring return the same moves, bit for
    /// bit, and the screen skips candidates even while pixels of both
    /// classes fail elsewhere in the frame.
    #[test]
    fn screen_drops_only_non_improving_candidates() {
        let target = Polygon::from_rect(Rect::new(0, 0, 200, 40).unwrap());
        let (cls, model, cfg) = setup(&target);
        // Exact on the left; on the right, 4 nm too wide and 3 nm short.
        let shots = [
            Rect::new(0, 0, 100, 40).unwrap(),
            Rect::new(100, 0, 204, 37).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        let tracker = ViolationTracker::new(&cls, &map);
        assert!(tracker.summary().on_fails > 0 && tracker.summary().off_fails > 0);
        let key = |m: &ScoredMove| {
            (
                m.delta_cost.to_bits(),
                edge_rank(m.edge),
                m.delta,
                m.strip,
                m.sign.to_bits(),
            )
        };
        let (mut screened, mut improving) = (0, 0);
        for shot in &shots {
            for stride in [1, 2] {
                let (plain, all) = score_shot(&cls, &map, None, shot, &cfg, stride);
                let (fast, some) = score_shot(&cls, &map, Some(&tracker), shot, &cfg, stride);
                assert_eq!(all.screened, 0);
                assert_eq!(some.scored + some.screened, all.scored);
                assert_eq!(
                    fast.iter().map(key).collect::<Vec<_>>(),
                    plain.iter().map(key).collect::<Vec<_>>()
                );
                screened += some.screened;
                improving += plain.len();
            }
        }
        assert!(
            screened > 0 && improving > 0,
            "screened {screened}, improving {improving}"
        );
    }

    /// The dirty-window bookkeeping must only ever *skip* re-scoring of
    /// shots whose cached scores are provably unchanged — verified here by
    /// comparing every pass of an incremental run against a freshly scored
    /// engine on the same state.
    #[test]
    fn cached_scores_match_fresh_scores_after_each_pass() {
        let target = square(60);
        let (cls, model, cfg) = setup(&target);
        let mut shots = vec![
            Rect::new(-3, 2, 32, 58).unwrap(),
            Rect::new(28, -2, 63, 57).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        let mut tracker = ViolationTracker::new(&cls, &map);
        let mut engine = GreedyEngine::new(shots.len());
        for _ in 0..12 {
            // Mirror state for the reference engine before the pass runs.
            let mut ref_shots = shots.clone();
            let mut ref_map = map.clone();
            let mut ref_tracker = ViolationTracker::new(&cls, &ref_map);
            let mut ref_engine = GreedyEngine::new(ref_shots.len());

            let moved = engine.pass(&cls, &mut map, &mut tracker, &mut shots, &cfg, 1);
            let ref_moved = full_rescan(|| {
                ref_engine.pass(&cls, &mut ref_map, &mut ref_tracker, &mut ref_shots, &cfg, 1)
            });
            assert_eq!(moved, ref_moved);
            assert_eq!(shots, ref_shots, "cached scores drifted from fresh scores");
            if !moved {
                break;
            }
        }
    }
}

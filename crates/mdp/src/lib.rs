//! Mask data prep (MDP) layer: from a layout of many shapes to e-beam
//! shots, write time and mask cost.
//!
//! The paper frames fracturing inside the full mask-manufacturing flow
//! (§1): a mask contains billions of polygons, each shape is fractured
//! independently, the total shot count sets the variable-shaped-beam
//! write time, and mask write is ≈ 20 % of mask manufacturing cost — so a
//! 10 % shot-count reduction is ≈ 2 % mask cost. This crate provides that
//! surrounding flow at library scale:
//!
//! * [`layout`] — a [`layout::Layout`] of named shapes with
//!   placement, plus deterministic multi-threaded fracturing of all
//!   shapes ([`layout::fracture_layout_journaled`], the core with a
//!   checkpoint journal, and [`layout::fracture_layout_opts`], the
//!   wrapper without one), crash-proofed by a per-shape fallback ladder
//!   (model-based → retry → degraded tier → baselines) so one
//!   pathological shape degrades its own report row instead of the run;
//! * [`writetime`] — a VSB write-time estimator (shot flash time, stage
//!   settling, dose) in the spirit of the write-time-estimation work the
//!   paper cites;
//! * [`cost`] — the mask cost model tying shot counts back to dollars,
//!   reproducing the paper's "10 % shots ⇒ ~2 % mask cost" arithmetic;
//! * [`ordering`] — shot writing-order optimization (nearest-neighbour +
//!   2-opt) to shorten beam deflection travel.
//!
//! # Example
//!
//! ```
//! use maskfrac_mdp::layout::{Layout, Placement};
//! use maskfrac_geom::{Point, Polygon, Rect};
//!
//! let cell = Polygon::from_rect(Rect::new(0, 0, 40, 30).expect("rect"));
//! let mut layout = Layout::new("demo");
//! layout.add_shape("via", cell);
//! layout.place("via", Placement::at(0, 0));
//! layout.place("via", Placement::at(200, 100));
//! assert_eq!(layout.instance_count(), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
mod geomcache;
pub mod io;
pub mod journal;
pub mod layout;
pub mod ordering;
pub mod writetime;

pub use cost::{CostModel, MaskCostReport};
pub use ordering::{order_shots, OrderingReport};
pub use io::{
    load_layout, parse_layout, write_layout, CheckpointIoError, LayoutIoError, ParseLayoutError,
};
pub use journal::{read_journal, JournalRecord, JournalReplay, JournalWriter};
pub use layout::{
    fracture_layout_journaled, fracture_layout_opts, CheckpointOptions, Layout,
    LayoutFractureReport, LayoutOptions, Placement, ShapeFractureStats, MAX_LAYOUT_THREADS,
};
pub use writetime::{WriteTimeModel, WriteTimeReport};

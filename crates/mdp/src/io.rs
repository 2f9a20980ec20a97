//! Plain-text layout interchange format.
//!
//! Real mask data prep consumes layouts through OASIS/GDSII; this
//! reproduction uses a minimal line-oriented text format that carries the
//! same information the MDP layer needs — a shape library and placements —
//! while staying diff-able and hand-editable:
//!
//! ```text
//! # maskfrac layout v1
//! layout demo
//! shape via 0,0 40,0 40,30 0,30
//! place via 0 0
//! place via 200 100
//! place via 400 100 r90
//! ```
//!
//! Lines starting with `#` are comments; blank lines are ignored. A
//! `place` line optionally carries a fourth token naming a D4 placement
//! transform ([`maskfrac_geom::D4::label`]: `r0`/`r90`/`r180`/`r270`
//! rotations, `m0`/`m90`/`m180`/`m270` mirror-then-rotate); omitting it
//! means identity, so v1 translation-only files parse unchanged.
//!
//! Files whose extension is `.json` are read as JSON instead (handy for
//! tooling):
//!
//! ```text
//! {"name": "demo",
//!  "shapes": {"via": {"vertices": [{"x": 0, "y": 0}, …]}},
//!  "placements": [["via", {"offset": {"x": 0, "y": 0}, "transform": "R90"}]]}
//! ```
//!
//! `transform` names a [`maskfrac_geom::D4`] variant and defaults to the
//! identity when absent. Both formats go through [`load_layout`], which
//! dispatches on the extension and reports errors with the offending
//! path and cause. Both readers build every ring
//! through [`Polygon::new`], so malformed rings are rejected and
//! clockwise ones normalized.

use crate::layout::{Layout, Placement};
use maskfrac_geom::{Point, Polygon, D4};
use maskfrac_obs::json;
use maskfrac_shapes::io::{point_from_json, polygon_from_json};
use std::fmt;
use std::path::{Path, PathBuf};

/// Error parsing a layout file.
#[derive(Debug)]
pub struct ParseLayoutError {
    /// 1-based line number of the offending line (0 = file-level).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layout parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLayoutError {}

fn err(line: usize, message: impl Into<String>) -> ParseLayoutError {
    ParseLayoutError {
        line,
        message: message.into(),
    }
}

/// Error loading a layout file. Every variant names the
/// offending path, so a batch job over many layouts can report exactly
/// which file broke and why.
#[derive(Debug)]
pub enum LayoutIoError {
    /// The file could not be read.
    Read {
        /// Offending path.
        path: PathBuf,
        /// Underlying filesystem error.
        source: std::io::Error,
    },
    /// The text format did not parse.
    Parse {
        /// Offending path.
        path: PathBuf,
        /// Parse error with the offending line.
        source: ParseLayoutError,
    },
    /// The JSON form did not parse, or violated a layout invariant (a
    /// malformed ring, a placement referencing an unknown shape, …).
    Json {
        /// Offending path.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for LayoutIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutIoError::Read { path, source } => {
                write!(f, "cannot read layout {}: {source}", path.display())
            }
            LayoutIoError::Parse { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            LayoutIoError::Json { path, message } => {
                write!(f, "{}: invalid JSON layout: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for LayoutIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LayoutIoError::Read { source, .. } => Some(source),
            LayoutIoError::Parse { source, .. } => Some(source),
            LayoutIoError::Json { .. } => None,
        }
    }
}

/// Error touching a checkpoint journal (see [`crate::journal`]). Like
/// [`LayoutIoError`], every variant names the offending path so a
/// supervisor juggling many runs can say exactly which journal broke.
///
/// Torn tails are deliberately *not* an error: a journal truncated
/// mid-frame is the expected aftermath of a crash, and the reader
/// recovers the valid prefix (reporting the tail via
/// [`crate::journal::JournalReplay::torn_tail_bytes`]). Only structural
/// problems — an unreadable file, a foreign header, a fingerprint from a
/// different layout/config — refuse the journal.
#[derive(Debug)]
pub enum CheckpointIoError {
    /// The journal could not be opened or read.
    Read {
        /// Offending path.
        path: PathBuf,
        /// Underlying filesystem error.
        source: std::io::Error,
    },
    /// The journal could not be created, appended to, or flushed.
    Write {
        /// Offending path.
        path: PathBuf,
        /// Underlying filesystem error.
        source: std::io::Error,
    },
    /// The file exists but does not start with a valid journal header
    /// (wrong magic, unsupported version, or a header torn so short the
    /// run cannot even be identified).
    Header {
        /// Offending path.
        path: PathBuf,
        /// What was wrong with the header.
        message: String,
    },
    /// The header is valid but belongs to a different run: its
    /// layout/config fingerprint does not match the one this run
    /// derives. Resuming would silently mix results across
    /// configurations, so it is refused.
    FingerprintMismatch {
        /// Offending path.
        path: PathBuf,
        /// Fingerprint recorded in the journal header.
        found: u64,
        /// Fingerprint of the layout/config pair being resumed.
        expected: u64,
    },
}

impl fmt::Display for CheckpointIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointIoError::Read { path, source } => {
                write!(f, "cannot read checkpoint {}: {source}", path.display())
            }
            CheckpointIoError::Write { path, source } => {
                write!(f, "cannot write checkpoint {}: {source}", path.display())
            }
            CheckpointIoError::Header { path, message } => {
                write!(f, "{}: not a maskfrac checkpoint: {message}", path.display())
            }
            CheckpointIoError::FingerprintMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: checkpoint belongs to a different run: journal fingerprint \
                 {found:#018x}, this layout/config is {expected:#018x}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointIoError::Read { source, .. } | CheckpointIoError::Write { source, .. } => {
                Some(source)
            }
            CheckpointIoError::Header { .. } | CheckpointIoError::FingerprintMismatch { .. } => {
                None
            }
        }
    }
}

/// Serializes a layout to the text format.
///
/// # Example
///
/// ```
/// use maskfrac_mdp::io::{parse_layout, write_layout};
/// use maskfrac_mdp::layout::{Layout, Placement};
/// use maskfrac_geom::{Polygon, Rect};
///
/// let mut layout = Layout::new("demo");
/// layout.add_shape("via", Polygon::from_rect(Rect::new(0, 0, 40, 30).expect("rect")));
/// layout.place("via", Placement::at(0, 0));
/// let text = write_layout(&layout);
/// let back = parse_layout(&text).expect("round trip");
/// assert_eq!(layout, back);
/// ```
pub fn write_layout(layout: &Layout) -> String {
    use std::fmt::Write as _;
    // `write!` into a `String` cannot fail.
    let mut out = String::from("# maskfrac layout v1\n");
    let _ = writeln!(out, "layout {}", layout.name);
    for (name, polygon) in layout.shapes() {
        let _ = write!(out, "shape {name}");
        for v in polygon.vertices() {
            let _ = write!(out, " {},{}", v.x, v.y);
        }
        out.push('\n');
    }
    for (name, placement) in layout.placements() {
        let Point { x, y } = placement.offset;
        if placement.transform.is_identity() {
            // Identity placements keep the v1 three-token line, so files
            // written for translation-only layouts are byte-stable.
            let _ = writeln!(out, "place {name} {x} {y}");
        } else {
            let _ = writeln!(out, "place {name} {x} {y} {}", placement.transform.label());
        }
    }
    out
}

/// Parses the text format back into a [`Layout`].
///
/// # Errors
///
/// Returns a [`ParseLayoutError`] naming the offending line for malformed
/// directives, bad vertex lists, or placements of unknown shapes.
pub fn parse_layout(text: &str) -> Result<Layout, ParseLayoutError> {
    let mut layout: Option<Layout> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("layout") => {
                let name = parts
                    .next()
                    .ok_or_else(|| err(line_no, "layout needs a name"))?;
                if layout.is_some() {
                    return Err(err(line_no, "duplicate layout directive"));
                }
                layout = Some(Layout::new(name));
            }
            Some("shape") => {
                let layout = layout
                    .as_mut()
                    .ok_or_else(|| err(line_no, "shape before layout directive"))?;
                let name = parts
                    .next()
                    .ok_or_else(|| err(line_no, "shape needs a name"))?;
                let mut vertices = Vec::new();
                for token in parts {
                    let (x, y) = token
                        .split_once(',')
                        .ok_or_else(|| err(line_no, format!("bad vertex {token:?}")))?;
                    let x: i64 = x
                        .parse()
                        .map_err(|_| err(line_no, format!("bad x coordinate {x:?}")))?;
                    let y: i64 = y
                        .parse()
                        .map_err(|_| err(line_no, format!("bad y coordinate {y:?}")))?;
                    vertices.push(Point::new(x, y));
                }
                let polygon = Polygon::new(vertices)
                    .map_err(|e| err(line_no, format!("invalid shape ring: {e}")))?;
                layout.add_shape(name, polygon);
            }
            Some("place") => {
                let layout = layout
                    .as_mut()
                    .ok_or_else(|| err(line_no, "place before layout directive"))?;
                let name = parts
                    .next()
                    .ok_or_else(|| err(line_no, "place needs a shape name"))?;
                let dx: i64 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, "place needs integer dx dy"))?;
                let dy: i64 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, "place needs integer dx dy"))?;
                // Optional fourth token: a D4 transform label (r90, m0,
                // …); absent means identity, keeping v1 files valid.
                let transform = match parts.next() {
                    None => maskfrac_geom::D4::R0,
                    Some(token) => maskfrac_geom::D4::parse(token).ok_or_else(|| {
                        err(line_no, format!("bad placement transform {token:?}"))
                    })?,
                };
                if !layout.has_shape(name) {
                    return Err(err(line_no, format!("placement of unknown shape {name:?}")));
                }
                layout.place(name, Placement::transformed(dx, dy, transform));
            }
            Some(other) => {
                return Err(err(line_no, format!("unknown directive {other:?}")));
            }
            None => unreachable!("blank lines are skipped"),
        }
    }
    layout.ok_or_else(|| err(0, "no layout directive found"))
}

fn is_json(path: &Path) -> bool {
    path.extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
}

/// Parses a layout from its JSON form, validating every ring and
/// placement.
///
/// # Errors
///
/// A [`json::Error`] for malformed JSON, a ring [`Polygon::new`] rejects,
/// an unknown transform, or a placement of an unknown shape.
fn layout_from_json(text: &str) -> Result<Layout, json::Error> {
    let doc = json::parse(text)?;
    let mut layout = Layout::new(doc.field("name")?.to_str()?);
    for (name, shape) in doc.field("shapes")?.to_object()? {
        let polygon = polygon_from_json(shape)
            .map_err(|e| json::Error::new(format!("shape {name:?}: {e}")))?;
        layout.add_shape(name, polygon);
    }
    for entry in doc.field("placements")?.to_array()? {
        let [name, placement] = entry.to_array()? else {
            return Err(json::Error::new("a placement is a [name, placement] pair"));
        };
        let name = name.to_str()?;
        if !layout.has_shape(name) {
            return Err(json::Error::new(format!(
                "placement references unknown shape {name:?}"
            )));
        }
        let transform = match placement.get("transform") {
            None => D4::R0,
            Some(t) => {
                let t = t.to_str()?;
                d4_from_variant_name(t)
                    .ok_or_else(|| json::Error::new(format!("unknown transform {t:?}")))?
            }
        };
        let offset = point_from_json(placement.field("offset")?)?;
        layout.place(name, Placement::transformed(offset.x, offset.y, transform));
    }
    Ok(layout)
}

/// The [`D4`] whose variant name (its `Debug` form, as the JSON format
/// spells transforms) is `name`.
fn d4_from_variant_name(name: &str) -> Option<D4> {
    Some(match name {
        "R0" => D4::R0,
        "R90" => D4::R90,
        "R180" => D4::R180,
        "R270" => D4::R270,
        "M0" => D4::M0,
        "M90" => D4::M90,
        "M180" => D4::M180,
        "M270" => D4::M270,
        _ => return None,
    })
}

/// Reads a layout file — the text format by default, JSON when the
/// extension is `.json`.
///
/// # Errors
///
/// [`LayoutIoError`] naming the path on filesystem, parse, or validation
/// failure, including JSON layouts whose placements reference shapes
/// missing from the library.
pub fn load_layout<P: AsRef<Path>>(path: P) -> Result<Layout, LayoutIoError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| LayoutIoError::Read {
        path: path.to_owned(),
        source: e,
    })?;
    if is_json(path) {
        layout_from_json(&text).map_err(|e| LayoutIoError::Json {
            path: path.to_owned(),
            message: e.to_string(),
        })
    } else {
        parse_layout(&text).map_err(|e| LayoutIoError::Parse {
            path: path.to_owned(),
            source: e,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutFractureReport;
    use maskfrac_geom::rng::{for_cases, StdRng};
    use maskfrac_geom::Rect;
    use maskfrac_obs::json::Value;
    use maskfrac_shapes::io::{point_to_json, polygon_to_json};
    use std::collections::BTreeMap;

    /// Serializes a layout to its JSON form (see the module docs).
    fn layout_to_json(layout: &Layout) -> String {
        let shapes = layout
            .shapes()
            .map(|(name, polygon)| (name, polygon_to_json(polygon)));
        let placements = layout.placements().map(|(name, p)| {
            let placement = Value::object([
                ("offset", point_to_json(p.offset)),
                ("transform", format!("{:?}", p.transform).into()),
            ]);
            Value::Array(vec![name.into(), placement])
        });
        Value::object([
            ("name", Value::from(layout.name.as_str())),
            ("shapes", Value::object(shapes)),
            ("placements", Value::Array(placements.collect())),
        ])
        .pretty()
    }

    fn demo() -> Layout {
        let mut layout = Layout::new("demo");
        layout.add_shape(
            "via",
            Polygon::from_rect(Rect::new(0, 0, 40, 30).unwrap()),
        );
        layout.add_shape(
            "ell",
            Polygon::new(vec![
                Point::new(0, 0),
                Point::new(50, 0),
                Point::new(50, 20),
                Point::new(20, 20),
                Point::new(20, 50),
                Point::new(0, 50),
            ])
            .unwrap(),
        );
        layout.place("via", Placement::at(0, 0));
        layout.place("via", Placement::at(100, 0));
        layout.place("ell", Placement::at(0, 100));
        layout
    }

    #[test]
    fn round_trip() {
        let layout = demo();
        let text = write_layout(&layout);
        let back = parse_layout(&text).unwrap();
        assert_eq!(layout, back);
    }

    #[test]
    fn file_round_trip() {
        let layout = demo();
        let path = std::env::temp_dir().join("maskfrac_layout_test.txt");
        std::fs::write(&path, write_layout(&layout)).unwrap();
        let back = load_layout(&path).unwrap();
        assert_eq!(layout, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# header\n\nlayout x\n  # indented comment\nshape s 0,0 10,0 10,10 0,10\nplace s 5 5\n";
        let layout = parse_layout(text).unwrap();
        assert_eq!(layout.name, "x");
        assert_eq!(layout.shape_count(), 1);
        assert_eq!(layout.instance_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("shape s 0,0 1,0 1,1", "before layout"),
            ("layout a\nshape s 0,0 zz,0 1,1", "bad x coordinate"),
            ("layout a\nshape s 0,0", "invalid shape ring"),
            ("layout a\nplace ghost 0 0", "unknown shape"),
            ("layout a\nfrobnicate", "unknown directive"),
            ("layout a\nlayout b", "duplicate layout"),
            ("", "no layout directive"),
            ("layout a\nshape s 0,0 10,0 10,10\nplace s 1", "integer dx dy"),
        ];
        for (text, needle) in cases {
            let e = parse_layout(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{text:?}: got {e}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn json_round_trip() {
        let layout = demo();
        let path = std::env::temp_dir().join("maskfrac_layout_test.json");
        std::fs::write(&path, layout_to_json(&layout)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('{'), "JSON on .json paths");
        let back = load_layout(&path).unwrap();
        assert_eq!(layout, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_errors_name_the_path() {
        let missing = std::env::temp_dir().join("maskfrac_no_such_layout.txt");
        let e = load_layout(&missing).unwrap_err();
        assert!(matches!(e, LayoutIoError::Read { .. }));
        assert!(e.to_string().contains("maskfrac_no_such_layout.txt"), "{e}");

        let bad = std::env::temp_dir().join("maskfrac_bad_layout.txt");
        std::fs::write(&bad, "frobnicate\n").unwrap();
        let e = load_layout(&bad).unwrap_err();
        assert!(e.to_string().contains("maskfrac_bad_layout.txt"), "{e}");
        assert!(e.to_string().contains("layout parse error"), "{e}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn json_layout_with_dangling_placement_is_rejected() {
        let path = std::env::temp_dir().join("maskfrac_dangling_layout.json");
        let text = r#"{"name":"bad","shapes":{},"placements":[["ghost",{"offset":{"x":0,"y":0}}]]}"#;
        std::fs::write(&path, text).unwrap();
        let e = load_layout(&path).unwrap_err();
        assert!(e.to_string().contains("unknown shape"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transformed_placements_round_trip() {
        let mut layout = demo();
        for (i, t) in maskfrac_geom::D4::ALL.into_iter().enumerate() {
            layout.place("ell", Placement::transformed(i as i64 * 300, 700, t));
        }
        let text = write_layout(&layout);
        // Identity placements keep the 3-token v1 line; only the
        // non-identity ones carry a transform label.
        for line in text.lines().filter(|l| l.starts_with("place ")) {
            let tokens = line.split_whitespace().count();
            assert!(tokens == 4 || tokens == 5, "{line:?}");
        }
        assert!(text.contains("place ell 300 700 r90"), "{text}");
        assert!(!text.contains(" r0\n"), "identity stays implicit: {text}");
        let back = parse_layout(&text).unwrap();
        assert_eq!(layout, back);
    }

    #[test]
    fn bad_transform_token_is_rejected_with_a_line_number() {
        let text = "layout a\nshape s 0,0 10,0 10,10 0,10\nplace s 1 2 r45\n";
        let e = parse_layout(text).unwrap_err();
        assert!(e.to_string().contains("bad placement transform"), "{e}");
        assert!(e.to_string().contains("line 3"), "{e}");
    }

    #[test]
    fn translation_only_text_files_parse_unchanged() {
        // v1 files (3-token place lines) must keep parsing, and every
        // placement defaults to the identity transform.
        let text = "layout legacy\nshape s 0,0 10,0 10,10 0,10\nplace s 5 5\nplace s 50 5\n";
        let layout = parse_layout(text).unwrap();
        assert!(layout
            .placements()
            .all(|(_, p)| p.transform.is_identity()));
        // And writing it back is byte-stable (no transform labels leak in).
        assert_eq!(write_layout(&layout), format!("# maskfrac layout v1\n{text}"));
    }

    #[test]
    fn json_layout_with_legacy_placement_parses_with_identity_transform() {
        // Pre-hierarchy JSON layouts carry placements without a
        // `transform` field; the reader must fill in the identity.
        let path = std::env::temp_dir().join("maskfrac_legacy_placement.json");
        let text = r#"{"name":"old","shapes":{"s":{"vertices":[{"x":0,"y":0},{"x":10,"y":0},{"x":10,"y":10},{"x":0,"y":10}]}},"placements":[["s",{"offset":{"x":3,"y":4}}]]}"#;
        std::fs::write(&path, text).unwrap();
        let layout = load_layout(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(layout.instance_count(), 1);
        assert!(layout.placements().all(|(_, p)| p.transform.is_identity()));
    }

    #[test]
    fn vertex_order_is_preserved_modulo_normalization() {
        // Writer emits the normalized (CCW) ring, so parse(write(x)) is a
        // fixed point even for shapes originally given clockwise.
        let mut layout = Layout::new("cw");
        layout.add_shape(
            "s",
            Polygon::new(vec![
                Point::new(0, 0),
                Point::new(0, 10),
                Point::new(10, 10),
                Point::new(10, 0),
            ])
            .unwrap(),
        );
        let once = parse_layout(&write_layout(&layout)).unwrap();
        let twice = parse_layout(&write_layout(&once)).unwrap();
        assert_eq!(once, twice);
    }

    fn json_with_ring(ring: &str) -> String {
        format!(r#"{{"name":"v","shapes":{{"s":{{"vertices":[{ring}]}}}},"placements":[["s",{{"offset":{{"x":0,"y":0}}}}]]}}"#)
    }

    fn load_json_err(name: &str, text: &str) -> LayoutIoError {
        let path = std::env::temp_dir().join(format!("maskfrac_{name}.json"));
        std::fs::write(&path, text).unwrap();
        let result = load_layout(&path);
        std::fs::remove_file(&path).ok();
        result.unwrap_err()
    }

    #[test]
    fn json_two_vertex_ring_is_rejected() {
        let e = load_json_err("two_vertex", &json_with_ring(r#"{"x":0,"y":0},{"x":9,"y":0}"#));
        assert!(matches!(e, LayoutIoError::Json { .. }), "{e}");
        assert!(e.to_string().contains("invalid ring"), "{e}");
    }

    #[test]
    fn json_repeated_vertex_is_rejected() {
        let ring = r#"{"x":0,"y":0},{"x":9,"y":0},{"x":9,"y":0},{"x":9,"y":9},{"x":0,"y":9}"#;
        let e = load_json_err("repeated_vertex", &json_with_ring(ring));
        assert!(matches!(e, LayoutIoError::Json { .. }), "{e}");
        assert!(e.to_string().contains("invalid ring"), "{e}");
    }

    #[test]
    fn json_zero_area_ring_is_rejected() {
        let ring = r#"{"x":0,"y":0},{"x":5,"y":0},{"x":9,"y":0}"#;
        let e = load_json_err("zero_area", &json_with_ring(ring));
        assert!(matches!(e, LayoutIoError::Json { .. }), "{e}");
        assert!(e.to_string().contains("invalid ring"), "{e}");
    }

    #[test]
    fn json_unknown_transform_is_rejected() {
        let text = r#"{"name":"t","shapes":{"s":{"vertices":[{"x":0,"y":0},{"x":9,"y":0},{"x":9,"y":9}]}},"placements":[["s",{"offset":{"x":0,"y":0},"transform":"R45"}]]}"#;
        let e = load_json_err("bad_transform", text);
        assert!(matches!(e, LayoutIoError::Json { .. }), "{e}");
        assert!(e.to_string().contains("unknown transform \"R45\""), "{e}");
    }

    #[test]
    fn json_clockwise_ring_is_normalized() {
        let ring = r#"{"x":0,"y":0},{"x":0,"y":9},{"x":9,"y":9},{"x":9,"y":0}"#;
        let layout = layout_from_json(&json_with_ring(ring)).unwrap();
        let (_, polygon) = layout.shapes().next().unwrap();
        let ccw = [(9, 0), (9, 9), (0, 9), (0, 0)].map(|(x, y)| Point::new(x, y));
        assert_eq!(polygon.vertices(), ccw);
    }

    /// A uniform index below `n`.
    fn pick(rng: &mut StdRng, n: usize) -> usize {
        rng.gen_range(0..=n as i64 - 1) as usize
    }

    /// A random rectangle or L with its corner near the local origin.
    fn random_cell(rng: &mut StdRng) -> Polygon {
        let (w, h) = (rng.gen_range(8..=60), rng.gen_range(8..=60));
        if rng.gen_range(0..=1) == 0 {
            return Polygon::from_rect(Rect::new(0, 0, w, h).unwrap());
        }
        let (ax, ay) = (rng.gen_range(2..=w - 2), rng.gen_range(2..=h - 2));
        let ring = [(0, 0), (w, 0), (w, ay), (ax, ay), (ax, h), (0, h)];
        Polygon::new(ring.map(|(x, y)| Point::new(x, y)).to_vec()).unwrap()
    }

    #[test]
    fn interned_layouts_round_trip_count_and_expand_by_name() {
        for_cases(64, |rng| {
            // Shapes enter the library in shuffled order; the last one
            // is never placed.
            let shape_count = rng.gen_range(2..=6) as usize;
            let mut names: Vec<String> = (0..shape_count).map(|i| format!("s{i}")).collect();
            for i in (1..names.len()).rev() {
                names.swap(i, pick(rng, i + 1));
            }
            let mut layout = Layout::new("interned");
            for name in &names {
                layout.add_shape(name, random_cell(rng));
            }
            let placed = &names[..shape_count - 1];
            // All eight transforms, then random ones.
            let extra = rng.gen_range(0..=24) as usize;
            let sequence: Vec<(&str, Placement)> = (0..8 + extra)
                .map(|i| {
                    let t = if i < 8 {
                        D4::ALL[i]
                    } else {
                        D4::ALL[pick(rng, 8)]
                    };
                    let (x, y) = (rng.gen_range(-500..=500), rng.gen_range(-500..=500));
                    let name = placed[pick(rng, placed.len())].as_str();
                    (name, Placement::transformed(x, y, t))
                })
                .collect();
            let replace_at = pick(rng, sequence.len());
            for (i, &(name, placement)) in sequence.iter().enumerate() {
                layout.place(name, placement);
                if i == replace_at {
                    // Replacing a placed shape keeps its placements.
                    assert!(layout.add_shape(name, random_cell(rng)).is_some());
                }
            }
            let listed: Vec<(&str, Placement)> = layout.placements().collect();
            assert_eq!(listed, sequence);

            let text = parse_layout(&write_layout(&layout)).unwrap();
            assert_eq!(text, layout, "text round trip");
            let json = layout_from_json(&layout_to_json(&layout)).unwrap();
            assert_eq!(json, layout, "JSON round trip");

            let mut tally: BTreeMap<String, usize> = BTreeMap::new();
            for (name, _) in &sequence {
                *tally.entry((*name).to_owned()).or_default() += 1;
            }
            assert_eq!(layout.placement_counts(), tally);

            // Random local shots per placed name, some empty; one name
            // may have no report entry at all.
            let shape_shots: BTreeMap<String, Vec<Rect>> = placed
                .iter()
                .skip(rng.gen_range(0..=1) as usize)
                .map(|name| {
                    let shots = (0..rng.gen_range(0..=3))
                        .map(|_| {
                            let (x, y) = (rng.gen_range(-20..=20), rng.gen_range(-20..=20));
                            Rect::new(x, y, x + rng.gen_range(1..=9), y + rng.gen_range(1..=9))
                                .unwrap()
                        })
                        .collect();
                    (name.clone(), shots)
                })
                .collect();
            let report = LayoutFractureReport {
                layout: layout.name.clone(),
                per_shape: Vec::new(),
                shape_shots,
            };
            let by_name: Vec<Rect> = layout
                .placements()
                .flat_map(|(name, p)| {
                    report
                        .shape_shots
                        .get(name)
                        .into_iter()
                        .flatten()
                        .map(move |s| p.transform.apply_rect(s).translate(p.offset))
                })
                .collect();
            assert_eq!(report.placed_shots(&layout).collect::<Vec<_>>(), by_name);

            // Same library and placements rebuild an equal layout; the
            // same placements in another order do not.
            let rebuild = |order: &[(&str, Placement)]| {
                let mut other = Layout::new("interned");
                for (name, polygon) in layout.shapes() {
                    other.add_shape(name, polygon.clone());
                }
                for &(name, placement) in order {
                    other.place(name, placement);
                }
                other
            };
            assert_eq!(rebuild(&listed), layout);
            let mut swapped = listed.clone();
            let i = pick(rng, swapped.len() - 1);
            swapped.swap(i, i + 1);
            if swapped != listed {
                assert_ne!(rebuild(&swapped), layout, "placement order matters");
            }
        });
    }

    #[test]
    fn variant_names_match_the_debug_form() {
        for d in D4::ALL {
            assert_eq!(d4_from_variant_name(&format!("{d:?}")), Some(d));
        }
        assert_eq!(d4_from_variant_name("r90"), None, "a label");
    }

    #[test]
    fn json_transforms_round_trip_as_variant_names() {
        let mut layout = demo();
        layout.place("ell", Placement::transformed(5, 6, D4::M90));
        let text = layout_to_json(&layout);
        assert!(text.contains("\"transform\": \"M90\""), "{text}");
        assert_eq!(layout_from_json(&text).unwrap(), layout);
    }
}

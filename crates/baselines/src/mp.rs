//! Matching pursuit (MP) baseline.
//!
//! Treats fracturing as sparse signal reconstruction (Jiang & Zakhor): the
//! "signal" is the target indicator, the "dictionary" is the candidate
//! shot pool, and shots are added greedily by normalized correlation with
//! the residual `R = target − Itot`. The correlation is evaluated on the
//! unblurred residual with a summed-area table (the blur is near-constant
//! over a shot's interior, so ranking is preserved), which keeps the
//! pursuit tractable — the published implementation is likewise its
//! slowest competitor, and the pursuit loop dominates runtime here too.

use crate::candidates::pursuit_candidates;
use crate::MaskFracturer;
use maskfrac_geom::sat::Sat;
use maskfrac_ebeam::{Classification, IntensityMap, PixelClass};
use maskfrac_fracture::{FractureConfig, FractureResult};
use maskfrac_geom::{Polygon, Rect};
use std::time::Instant;

/// The matching-pursuit fracturer.
#[derive(Debug, Clone)]
pub struct MatchingPursuit {
    config: FractureConfig,
    /// Stop when the best normalized correlation falls below this.
    score_floor: f64,
    /// Hard cap on pursuit iterations.
    max_shots: usize,
}

impl MatchingPursuit {
    /// Creates an MP baseline with default pursuit controls.
    pub fn new(config: FractureConfig) -> Self {
        MatchingPursuit {
            config,
            score_floor: 0.15,
            max_shots: 200,
        }
    }
}

impl MaskFracturer for MatchingPursuit {
    fn name(&self) -> &'static str {
        "mp"
    }

    /// Runs matching pursuit on one target.
    fn fracture(&self, target: &Polygon) -> FractureResult {
        let start = Instant::now();
        let model = self.config.model();
        let cls = Classification::build(
            target,
            self.config.gamma,
            model.support_radius_px() + 2,
        );
        let pool = pursuit_candidates(target, &cls, &self.config);
        let frame = cls.frame();
        let mut map = IntensityMap::new(model, cls.frame());
        let mut shots: Vec<Rect> = Vec::new();
        let mut iterations = 0usize;

        loop {
            if iterations >= self.max_shots {
                break;
            }
            // Residual on the constrained pixels, quantized to a sign grid
            // so a summed-area table can score candidates: +1 where more
            // dose is needed, −1 where dose must not land.
            let rho = map.model().rho();
            let mut need = maskfrac_geom::Bitmap::new(frame.width(), frame.height());
            let mut excess = maskfrac_geom::Bitmap::new(frame.width(), frame.height());
            let mut remaining = 0usize;
            for iy in 0..frame.height() {
                for ix in 0..frame.width() {
                    match cls.class(ix, iy) {
                        PixelClass::On if map.value(ix, iy) < rho => {
                            need.set(ix, iy, true);
                            remaining += 1;
                        }
                        PixelClass::Off => {
                            // A shot landing on any outside pixel will
                            // saturate it, so all Poff pixels repel atoms.
                            excess.set(ix, iy, true);
                        }
                        _ => {}
                    }
                }
            }
            if remaining == 0 {
                break;
            }
            let need_sat = Sat::build(&need);
            let excess_sat = Sat::build(&excess);
            // Dynamic atoms: the static coordinate grid cannot express
            // every residual feature, so each iteration also offers the
            // bounding boxes of the current failing components (and mild
            // dilations of them) as candidate atoms — the residual itself
            // proposes where dose is missing.
            let mut dynamic: Vec<Rect> = Vec::new();
            let origin = frame.origin();
            for comp in maskfrac_geom::label_components(&need) {
                let base = Rect::new(
                    origin.x + comp.bbox.x0(),
                    origin.y + comp.bbox.y0(),
                    origin.x + comp.bbox.x1(),
                    origin.y + comp.bbox.y1(),
                )
                .expect("component bbox is well-formed");
                for grow in [0i64, 2, 5] {
                    if let Some(r) = base.expand(grow) {
                        let r = Rect::new(
                            r.x0(),
                            r.y0(),
                            r.x1().max(r.x0() + self.config.min_shot_size),
                            r.y1().max(r.y0() + self.config.min_shot_size),
                        )
                        .expect("grown rect ordered");
                        dynamic.push(r);
                    }
                }
            }
            let mut best: Option<(f64, Rect)> = None;
            for r in pool.iter().chain(dynamic.iter()) {
                let xs = frame.clamp_x_range(r.x0() as f64, r.x1() as f64);
                let ys = frame.clamp_y_range(r.y0() as f64, r.y1() as f64);
                let gain = need_sat.count(xs.clone(), ys.clone()) as f64;
                let penalty = excess_sat.count(xs, ys) as f64;
                // Normalized correlation of the residual with the atom.
                let score = (gain - 3.0 * penalty) / (r.area() as f64).sqrt();
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, *r));
                }
            }
            match best {
                Some((score, shot)) if score >= self.score_floor => {
                    shots.push(shot);
                    map.add_shot(&shot);
                    iterations += 1;
                }
                _ => break,
            }
        }

        // Completion pass: patch the failing clusters the pursuit's
        // coordinate-grid dictionary cannot express.
        let pursuit_shots = shots.len();
        while maskfrac_fracture::refine::add_shot(&cls, &mut map, &mut shots, &self.config) {
            iterations += 1;
            if shots.len() > pursuit_shots + 250 {
                break;
            }
        }

        // Simulation-driven cleanup: edge polishing only.
        let polished =
            maskfrac_fracture::refine::polish_edges(&cls, map.model(), &self.config, shots, 120);

        FractureResult {
            approx_shot_count: pursuit_shots,
            status: crate::status_of(&polished.summary),
            shots: polished.shots,
            summary: polished.summary,
            iterations: iterations + polished.iterations,
            runtime: start.elapsed(),
            deadline_hit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Point;

    #[test]
    fn reconstructs_a_square() {
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        let r = MatchingPursuit::new(FractureConfig::default()).fracture(&target);
        assert_eq!(r.summary.on_fails, 0, "{:?}", r.summary);
        // MP characteristically patches corners with small atoms.
        assert!(r.shot_count() <= 6, "{:?}", r.shots);
    }

    #[test]
    fn reconstructs_an_l_shape() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let r = MatchingPursuit::new(FractureConfig::default()).fracture(&target);
        assert_eq!(r.summary.on_fails, 0, "{:?}", r.summary);
    }

    #[test]
    fn pursuit_terminates_on_score_floor() {
        // A tiny target: once covered, every candidate's score drops and
        // the loop exits rather than spinning to max_shots.
        let target = Polygon::from_rect(Rect::new(0, 0, 24, 24).unwrap());
        let r = MatchingPursuit::new(FractureConfig::default()).fracture(&target);
        assert!(r.shot_count() < 20);
    }
}

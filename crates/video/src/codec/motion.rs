//! Integer-pel motion estimation: SAD cost + three-step search over 16×16
//! macroblocks.

use super::color::Plane;
use super::MB;

/// A motion vector in integer luma pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    /// Horizontal displacement.
    pub dx: i32,
    /// Vertical displacement.
    pub dy: i32,
}

/// Sums of absolute differences between the `MB×MB` block of `cur` at
/// `(x0, y0)` and the reference blocks displaced by each of `mvs` (edge
/// clamped).
///
/// The `N` sums are independent accumulation chains advanced in lockstep,
/// each over its 256 terms in row-major order (see the bit-exactness
/// contract in the module docs): the parallelism is across candidates,
/// never within one sum.
///
/// # Panics
///
/// Panics unless both planes carry a replicated border of at least `MB`
/// samples, which makes every clamped read a row slice.
pub fn sad_n<const N: usize>(
    cur: &Plane,
    reference: &Plane,
    x0: usize,
    y0: usize,
    mvs: &[MotionVector; N],
) -> [f32; N] {
    let (x0, y0) = (x0 as isize, y0 as isize);
    let origins =
        mvs.map(|mv| reference.clamp_origin(x0 + mv.dx as isize, y0 + mv.dy as isize, MB));
    let mut acc = [0.0f32; N];
    for j in 0..MB as isize {
        let c: &[f32; MB] = cur.row(x0, y0 + j);
        let rows: [&[f32; MB]; N] = origins.map(|(x, y)| reference.row(x, y + j));
        for i in 0..MB {
            for k in 0..N {
                acc[k] += (c[i] - rows[k][i]).abs();
            }
        }
    }
    acc
}

/// Three-step search around (0,0) with an initial radius of `range/2`,
/// returning the best motion vector and its SAD. `zero_sad` is the SAD at
/// the zero vector, which the caller has already computed.
///
/// This is the classic logarithmic search: evaluate the 9 points of a
/// square, recenter on the best, halve the step, repeat.
pub fn three_step_search(
    cur: &Plane,
    reference: &Plane,
    x0: usize,
    y0: usize,
    range: i32,
    zero_sad: f32,
) -> (MotionVector, f32) {
    let mut best = MotionVector::default();
    let mut best_sad = zero_sad;
    let mut step = (range / 2).max(1);
    loop {
        let center = best;
        let offsets = [-step, 0, step];
        let mut cands = [center; 8];
        for (k, cand) in cands.iter_mut().enumerate() {
            let k = k + k / 4; // skip the center, index 4 of the 3×3 square
            cand.dx = (center.dx + offsets[k % 3]).clamp(-range, range);
            cand.dy = (center.dy + offsets[k / 3]).clamp(-range, range);
        }
        for (cand, s) in cands.iter().zip(sad_n(cur, reference, x0, y0, &cands)) {
            if s < best_sad {
                best_sad = s;
                best = *cand;
            }
        }
        if step == 1 {
            return (best, best_sad);
        }
        step /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The scalar reference: one accumulation chain, every read clamped.
    fn sad(cur: &Plane, reference: &Plane, x0: usize, y0: usize, dx: i32, dy: i32) -> f32 {
        let mut acc = 0.0f32;
        for j in 0..MB {
            for i in 0..MB {
                let c = cur.at_clamped((x0 + i) as isize, (y0 + j) as isize);
                let r = reference.at_clamped(
                    x0 as isize + i as isize + dx as isize,
                    y0 as isize + j as isize + dy as isize,
                );
                acc += (c - r).abs();
            }
        }
        acc
    }

    /// The scalar reference search: candidates one at a time, in the same
    /// order, the zero-vector SAD computed here.
    fn scalar_search(
        cur: &Plane,
        reference: &Plane,
        x0: usize,
        y0: usize,
        range: i32,
    ) -> (MotionVector, f32) {
        let mut best = MotionVector::default();
        let mut best_sad = sad(cur, reference, x0, y0, 0, 0);
        let mut step = (range / 2).max(1);
        while step >= 1 {
            let center = best;
            for dy in [-step, 0, step] {
                for dx in [-step, 0, step] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let cand = MotionVector {
                        dx: (center.dx + dx).clamp(-range, range),
                        dy: (center.dy + dy).clamp(-range, range),
                    };
                    let s = sad(cur, reference, x0, y0, cand.dx, cand.dy);
                    if s < best_sad {
                        best_sad = s;
                        best = cand;
                    }
                }
            }
            if step == 1 {
                break;
            }
            step /= 2;
        }
        (best, best_sad)
    }

    /// The search as the encoder runs it: bordered planes, zero SAD passed in.
    fn search(
        cur: &Plane,
        reference: &Plane,
        x0: usize,
        y0: usize,
        range: i32,
    ) -> (MotionVector, f32) {
        let (cur, reference) = (cur.bordered(MB), reference.bordered(MB));
        let [zero_sad] = sad_n(&cur, &reference, x0, y0, &[MotionVector::default()]);
        three_step_search(&cur, &reference, x0, y0, range, zero_sad)
    }

    /// Builds a plane with a bright square at `(x, y)`.
    fn plane_with_square(w: usize, h: usize, x: usize, y: usize) -> Plane {
        let mut p = Plane::zeros(w, h);
        for j in 0..6 {
            for i in 0..6 {
                if x + i < w && y + j < h {
                    p.set(x + i, y + j, 200.0);
                }
            }
        }
        p
    }

    #[test]
    fn sad_zero_for_identical() {
        let p = plane_with_square(32, 32, 8, 8).bordered(MB);
        assert_eq!(sad_n(&p, &p, 0, 0, &[MotionVector::default()]), [0.0]);
    }

    #[test]
    fn search_recovers_known_translation() {
        // Object moves +3 px right, +2 px down between reference and current.
        let reference = plane_with_square(48, 48, 10, 12);
        let cur = plane_with_square(48, 48, 13, 14);
        let (mv, s) = search(&cur, &reference, 0, 0, 8);
        // Best vector points from current back to reference content.
        assert_eq!((mv.dx, mv.dy), (-3, -2));
        assert_eq!(s, 0.0);
    }

    #[test]
    fn search_never_worse_than_zero_mv() {
        let reference = plane_with_square(48, 48, 9, 9);
        let cur = plane_with_square(48, 48, 16, 20);
        let zero = sad(&cur, &reference, 0, 0, 0, 0);
        let (_, best) = search(&cur, &reference, 0, 0, 8);
        assert!(best <= zero);
    }

    #[test]
    #[should_panic]
    fn unbordered_planes_are_rejected() {
        let p = Plane::zeros(32, 32);
        sad_n(&p, &p, 16, 16, &[MotionVector { dx: 1, dy: 0 }]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every macroblock of a random picture (so every edge and corner,
        /// and sizes that are not multiples of 16), every range 1–16: the
        /// same vector and the same SAD bits as the scalar search.
        #[test]
        fn search_matches_the_scalar_reference(
            seed in any::<u64>(), w in 1usize..56, h in 1usize..40, range in 1i32..=16,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let reference = Plane::random(w, h, &mut rng);
            // The current picture: the reference moved a little, plus noise.
            let (sx, sy) = (rng.gen_range(-6isize..=6), rng.gen_range(-6isize..=6));
            let mut cur = Plane::zeros(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = reference.at_clamped(x as isize + sx, y as isize + sy);
                    cur.set(x, y, v + rng.gen_range(-3.0f32..3.0));
                }
            }
            for y0 in (0..h).step_by(MB) {
                for x0 in (0..w).step_by(MB) {
                    let (mv, s) = search(&cur, &reference, x0, y0, range);
                    let (mv_ref, s_ref) = scalar_search(&cur, &reference, x0, y0, range);
                    prop_assert_eq!(mv, mv_ref, "mb ({}, {})", x0, y0);
                    prop_assert_eq!(s.to_bits(), s_ref.to_bits());
                }
            }
        }

        /// Eight arbitrary vectors at once, some far outside the picture:
        /// each lane equals the scalar SAD bit for bit.
        #[test]
        fn eight_lane_sad_matches_the_scalar_reference(
            seed in any::<u64>(), w in 1usize..56, h in 1usize..40,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (cur, reference) = (Plane::random(w, h, &mut rng), Plane::random(w, h, &mut rng));
            let (x0, y0) = (rng.gen_range(0..w) / MB * MB, rng.gen_range(0..h) / MB * MB);
            let mvs: [MotionVector; 8] = std::array::from_fn(|_| MotionVector {
                dx: rng.gen_range(-70..=70),
                dy: rng.gen_range(-70..=70),
            });
            let sads = sad_n(&cur.bordered(MB), &reference.bordered(MB), x0, y0, &mvs);
            for (mv, s) in mvs.iter().zip(sads) {
                prop_assert_eq!(s.to_bits(), sad(&cur, &reference, x0, y0, mv.dx, mv.dy).to_bits());
            }
        }
    }
}

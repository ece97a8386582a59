//! Minimum bounding rectangles (MBRs) — the range-query boxes of the
//! packed R-tree and the serving layer — and the Chebyshev metric kNN
//! queries rank by.

use serde::Serialize;

/// An axis-aligned minimum bounding rectangle over integer coordinates,
/// inclusive on both ends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Mbr {
    /// Inclusive lower corner.
    pub lo: Vec<i64>,
    /// Inclusive upper corner.
    pub hi: Vec<i64>,
}

impl Mbr {
    /// The MBR of a single point.
    pub fn point(p: &[i64]) -> Self {
        Mbr {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// The MBR of a non-empty set of points.
    ///
    /// # Panics
    /// Panics on an empty iterator — an empty MBR has no meaning here.
    pub fn of_points<'a, I: IntoIterator<Item = &'a [i64]>>(points: I) -> Self {
        let mut it = points.into_iter();
        let first = it.next().expect("MBR needs at least one point");
        let mut m = Mbr::point(first);
        for p in it {
            m.expand_point(p);
        }
        m
    }

    /// Dimensionality.
    pub fn ndim(&self) -> usize {
        self.lo.len()
    }

    /// Grow to include a point.
    pub fn expand_point(&mut self, p: &[i64]) {
        debug_assert_eq!(p.len(), self.ndim());
        for d in 0..self.lo.len() {
            self.lo[d] = self.lo[d].min(p[d]);
            self.hi[d] = self.hi[d].max(p[d]);
        }
    }

    /// True when `p` lies inside.
    pub fn contains_point(&self, p: &[i64]) -> bool {
        debug_assert_eq!(p.len(), self.ndim());
        p.iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(&c, (&l, &h))| c >= l && c <= h)
    }
}

/// Chebyshev (L∞) distance between two points — the metric every kNN
/// query of the serving layer ranks neighbours by.
pub fn chebyshev(a: &[i64], b: &[i64]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mbr() {
        let m = Mbr::point(&[1, 2]);
        assert_eq!(m.lo, vec![1, 2]);
        assert_eq!(m.hi, vec![1, 2]);
        assert!(m.contains_point(&[1, 2]));
        assert!(!m.contains_point(&[1, 3]));
    }

    #[test]
    fn of_points_covers_all() {
        let pts: Vec<Vec<i64>> = vec![vec![0, 5], vec![3, 1], vec![2, 2]];
        let m = Mbr::of_points(pts.iter().map(|p| p.as_slice()));
        assert_eq!(m.lo, vec![0, 1]);
        assert_eq!(m.hi, vec![3, 5]);
        for p in &pts {
            assert!(m.contains_point(p));
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_mbr_panics() {
        let empty: Vec<&[i64]> = vec![];
        Mbr::of_points(empty);
    }

    #[test]
    fn chebyshev_distance_cases() {
        assert_eq!(chebyshev(&[0, 0], &[3, -2]), 3);
        assert_eq!(chebyshev(&[1, 1, 1], &[1, 1, 1]), 0);
        assert_eq!(chebyshev(&[], &[]), 0);
    }

    #[test]
    fn expand_operations() {
        let mut m = Mbr::point(&[1, 1]);
        m.expand_point(&[-1, 3]);
        assert_eq!(m.lo, vec![-1, 1]);
        assert_eq!(m.hi, vec![1, 3]);
        m.expand_point(&[9, -5]);
        assert_eq!(m.lo, vec![-1, -5]);
        assert_eq!(m.hi, vec![9, 3]);
    }
}

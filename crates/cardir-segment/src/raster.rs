//! Label rasters — the output of a segmentation pass over an image.

use std::fmt;

/// Errors raised when building a raster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RasterError {
    /// Width or height was zero.
    EmptyDimensions,
    /// The label buffer length did not match `width × height`.
    SizeMismatch {
        /// Expected `width × height`.
        expected: usize,
        /// Buffer length found.
        found: usize,
    },
    /// Text rows had inconsistent lengths.
    RaggedRows,
}

impl fmt::Display for RasterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RasterError::EmptyDimensions => write!(f, "raster dimensions must be positive"),
            RasterError::SizeMismatch { expected, found } => {
                write!(f, "label buffer has {found} entries, expected {expected}")
            }
            RasterError::RaggedRows => write!(f, "text rows have inconsistent lengths"),
        }
    }
}

impl std::error::Error for RasterError {}

/// A segmented image: a grid of `u32` labels, label `0` meaning
/// background.
///
/// Cell `(col, row)` covers the unit square `[col, col+1] × [row, row+1]`
/// in region coordinates, with **row 0 at the south edge** (the y-up
/// convention of the geometry crate). Text constructors flip their input
/// so the *first* text line is the *northernmost* row, matching how one
/// reads an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raster {
    width: usize,
    height: usize,
    labels: Vec<u32>,
}

impl Raster {
    /// The background label.
    pub const BACKGROUND: u32 = 0;

    /// Builds a raster from a row-major label buffer (row 0 south).
    pub fn new(width: usize, height: usize, labels: Vec<u32>) -> Result<Self, RasterError> {
        if width == 0 || height == 0 {
            return Err(RasterError::EmptyDimensions);
        }
        if labels.len() != width * height {
            return Err(RasterError::SizeMismatch {
                expected: width * height,
                found: labels.len(),
            });
        }
        Ok(Raster {
            width,
            height,
            labels,
        })
    }

    /// Builds a raster by evaluating `f(col, row)` per cell.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> u32,
    ) -> Result<Self, RasterError> {
        if width == 0 || height == 0 {
            return Err(RasterError::EmptyDimensions);
        }
        let mut labels = Vec::with_capacity(width * height);
        for row in 0..height {
            for col in 0..width {
                labels.push(f(col, row));
            }
        }
        Ok(Raster {
            width,
            height,
            labels,
        })
    }

    /// Builds a raster from ASCII art: `.` (or space) is background,
    /// digits are their value, letters `a..` map to labels `10, 11, …`.
    /// The first line is the northernmost row.
    pub fn from_text(text: &str) -> Result<Self, RasterError> {
        let rows: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        if rows.is_empty() {
            return Err(RasterError::EmptyDimensions);
        }
        let width = rows[0].trim().len();
        let height = rows.len();
        let mut labels = vec![0u32; width * height];
        for (i, line) in rows.iter().enumerate() {
            let line = line.trim();
            if line.len() != width {
                return Err(RasterError::RaggedRows);
            }
            let row = height - 1 - i; // flip: first line is north
            for (col, c) in line.chars().enumerate() {
                labels[row * width + col] = match c {
                    '.' | ' ' => 0,
                    '0'..='9' => c as u32 - '0' as u32,
                    'a'..='z' => 10 + (c as u32 - 'a' as u32),
                    'A'..='Z' => 10 + (c as u32 - 'A' as u32),
                    other => other as u32,
                };
            }
        }
        Ok(Raster {
            width,
            height,
            labels,
        })
    }

    /// Raster width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raster height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The label of cell `(col, row)`; `None` outside the raster.
    pub fn get(&self, col: usize, row: usize) -> Option<u32> {
        (col < self.width && row < self.height).then(|| self.labels[row * self.width + col])
    }

    /// Mutable label access.
    pub fn set(&mut self, col: usize, row: usize, label: u32) {
        assert!(col < self.width && row < self.height, "cell out of bounds");
        self.labels[row * self.width + col] = label;
    }

    /// The distinct non-background labels, ascending.
    pub fn labels(&self) -> Vec<u32> {
        let mut ls: Vec<u32> = self.labels.iter().copied().filter(|&l| l != 0).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Number of cells carrying `label`.
    pub fn count(&self, label: u32) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }

    /// Row-major access to the raw labels (row 0 south).
    pub fn raw(&self) -> &[u32] {
        &self.labels
    }
}

impl fmt::Display for Raster {
    /// Renders as ASCII art, northernmost row first (inverse of
    /// [`Raster::from_text`] for labels < 36).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in (0..self.height).rev() {
            for col in 0..self.width {
                let l = self.labels[row * self.width + col];
                let c = match l {
                    0 => '.',
                    1..=9 => char::from_digit(l, 10).expect("digit"),
                    10..=35 => char::from_u32('a' as u32 + l - 10).expect("letter"),
                    _ => '#',
                };
                write!(f, "{c}")?;
            }
            if row > 0 {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_errors() {
        assert_eq!(
            Raster::new(0, 3, vec![]).unwrap_err(),
            RasterError::EmptyDimensions
        );
        assert_eq!(
            Raster::new(2, 2, vec![0; 3]).unwrap_err(),
            RasterError::SizeMismatch {
                expected: 4,
                found: 3
            }
        );
        assert_eq!(
            Raster::from_text("11\n1").unwrap_err(),
            RasterError::RaggedRows
        );
        assert_eq!(
            Raster::from_text("  \n  ").unwrap_err(),
            RasterError::EmptyDimensions
        );
    }

    #[test]
    fn text_round_trip_and_orientation() {
        let r = Raster::from_text(
            "22.
             ...
             .1.",
        )
        .unwrap();
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 3);
        // First text line is the north row (row 2).
        assert_eq!(r.get(0, 2), Some(2));
        assert_eq!(r.get(1, 0), Some(1));
        assert_eq!(r.get(2, 2), Some(0));
        assert_eq!(r.to_string(), "22.\n...\n.1.");
    }

    #[test]
    fn labels_and_counts() {
        let r = Raster::from_text("1a\n2a").unwrap();
        assert_eq!(r.labels(), vec![1, 2, 10]);
        assert_eq!(r.count(10), 2);
        assert_eq!(r.count(7), 0);
    }

    #[test]
    fn from_fn_and_set() {
        let mut r = Raster::from_fn(4, 2, |c, _| (c % 2) as u32).unwrap();
        assert_eq!(r.get(1, 0), Some(1));
        r.set(1, 0, 9);
        assert_eq!(r.get(1, 0), Some(9));
        assert_eq!(r.get(4, 0), None);
    }
}

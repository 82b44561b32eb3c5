//! File-backed datasets: write generated records as text-log segment
//! files and read them back, so jobs can exercise a real disk I/O path
//! (the paper's mappers read file segments; §2.1's "distributed chunks").
//!
//! Layout: `<dir>/segment-00000.log`, one record per line in the
//! [`crate::TextRecord`] format, segments split contiguously so the global
//! order is reconstituted by segment index.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

use crate::text::{to_lines, TextRecord};

/// Errors from the segment store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A line failed to parse as the expected record type.
    Parse {
        /// Offending file.
        file: PathBuf,
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "segment store I/O error: {e}"),
            StoreError::Parse { file, line } => {
                write!(f, "unparseable record at {}:{line}", file.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The file path of segment `id` under `dir`.
pub fn segment_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("segment-{id:05}.log"))
}

/// Writes `records` as `num_segments` contiguous text-log files under
/// `dir` (created if missing) and removes an earlier, longer run's segment
/// files past the last one written, so [`list_segments`] returns exactly
/// the paths this returns, in segment order.
pub fn write_segments<R: TextRecord>(
    records: &[R],
    dir: &Path,
    num_segments: usize,
) -> Result<Vec<PathBuf>, StoreError> {
    fs::create_dir_all(dir)?;
    let num_segments = num_segments.max(1);
    let chunk = records.len().div_ceil(num_segments).max(1);
    let mut paths = Vec::new();
    for (id, part) in records.chunks(chunk).enumerate() {
        let path = segment_path(dir, id);
        let mut w = BufWriter::new(File::create(&path)?);
        for line in to_lines(part) {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()?;
        paths.push(path);
    }
    // Left in place, an earlier run's tail would be read back as part of
    // this dataset (nothing written: `None` sorts first, so all of it goes).
    for stale in list_segments(dir)? {
        if Some(&stale) > paths.last() {
            fs::remove_file(stale)?;
        }
    }
    Ok(paths)
}

/// Reads one segment file back as raw lines (what a line-parsing mapper
/// consumes).
pub fn read_segment_lines(path: &Path) -> Result<Vec<String>, StoreError> {
    let f = File::open(path)?;
    let mut out = Vec::new();
    for line in BufReader::new(f).lines() {
        out.push(line?);
    }
    Ok(out)
}

/// Reads one segment file back as parsed records.
pub fn read_segment<R: TextRecord>(path: &Path) -> Result<Vec<R>, StoreError> {
    let lines = read_segment_lines(path)?;
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match R::parse_line(line) {
            Some(r) => out.push(r),
            None => {
                return Err(StoreError::Parse {
                    file: path.to_path_buf(),
                    line: i + 1,
                })
            }
        }
    }
    Ok(out)
}

/// Lists the segment files under `dir` in segment order.
pub fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("segment-") && n.ends_with(".log"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_github, GithubConfig, GithubEvent};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("symple-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_through_files() {
        let dir = tmp_dir("rt");
        let records = generate_github(&GithubConfig {
            num_records: 500,
            ..Default::default()
        });
        let paths = write_segments(&records, &dir, 4).unwrap();
        assert_eq!(paths.len(), 4);
        assert_eq!(list_segments(&dir).unwrap(), paths);

        let mut back: Vec<GithubEvent> = Vec::new();
        for p in &paths {
            back.extend(read_segment::<GithubEvent>(p).unwrap());
        }
        assert_eq!(
            back, records,
            "file round-trip must be lossless and ordered"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn regenerating_with_fewer_segments_leaves_no_stale_files() {
        let dir = tmp_dir("regen");
        let records = |seed| {
            generate_github(&GithubConfig {
                num_records: 400,
                seed,
                ..Default::default()
            })
        };
        assert_eq!(write_segments(&records(1), &dir, 8).unwrap().len(), 8);
        let second = records(2);
        let paths = write_segments(&second, &dir, 4).unwrap();
        assert_eq!(list_segments(&dir).unwrap(), paths);
        let back: Vec<GithubEvent> = paths
            .iter()
            .flat_map(|p| read_segment(p).unwrap())
            .collect();
        assert_eq!(back, second, "only the second dataset is read back");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_line_reports_location() {
        let dir = tmp_dir("bad");
        fs::create_dir_all(&dir).unwrap();
        let p = segment_path(&dir, 0);
        fs::write(&p, "not a record\n").unwrap();
        let err = read_segment::<GithubEvent>(&p).unwrap_err();
        match err {
            StoreError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn raw_lines_feed_line_mappers() {
        let dir = tmp_dir("lines");
        let records = generate_github(&GithubConfig {
            num_records: 50,
            ..Default::default()
        });
        let paths = write_segments(&records, &dir, 2).unwrap();
        let lines = read_segment_lines(&paths[0]).unwrap();
        assert_eq!(lines.len(), 25);
        assert!(GithubEvent::parse_line(&lines[0]).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_input_writes_nothing() {
        let dir = tmp_dir("empty");
        let paths = write_segments::<GithubEvent>(&[], &dir, 3).unwrap();
        assert!(paths.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}

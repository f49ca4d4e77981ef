//! WKT file IO: one polygon per line, the interchange format used by
//! common GIS tooling exports (`ogr2ogr`, PostGIS `ST_AsText` dumps).

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use stj_geom::wkt::{polygon_from_wkt, polygon_to_wkt, WktError};
use stj_geom::Polygon;

/// Errors raised while reading WKT files.
#[derive(Debug)]
pub enum WktIoError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A line failed to parse; payload carries the 1-based line number.
    Parse(usize, WktError),
}

impl std::fmt::Display for WktIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WktIoError::Io(e) => write!(f, "io error: {e}"),
            WktIoError::Parse(line, e) => write!(f, "line {line}: {e}"),
        }
    }
}

impl std::error::Error for WktIoError {}

impl From<std::io::Error> for WktIoError {
    fn from(e: std::io::Error) -> Self {
        WktIoError::Io(e)
    }
}

/// Bytes of WKT text a parse worker claims at a time (extended to the end
/// of the line it stops in).
const PARSE_CHUNK: usize = 256 << 10;

/// Reads polygons from a WKT-per-line reader. Blank lines and `#`
/// comment lines are skipped. Parses on the calling thread; see
/// [`parse_wkt_polygons`] for the parallel form.
pub fn read_wkt_polygons<R: BufRead>(mut r: R) -> Result<Vec<Polygon>, WktIoError> {
    let mut text = Vec::new();
    r.read_to_end(&mut text)?;
    parse_wkt_polygons(&text, 1)
}

/// Parses WKT-per-line `text` as [`read_wkt_polygons`] does — same
/// polygons in input order, same skipped lines, and on failure the same
/// error naming the first bad line — with up to `threads` workers, each
/// claiming line-aligned chunks of about 256 KiB.
pub fn parse_wkt_polygons(text: &[u8], threads: usize) -> Result<Vec<Polygon>, WktIoError> {
    parse_in_chunks(text, PARSE_CHUNK, threads)
}

/// [`parse_wkt_polygons`] with chunks of at least `chunk_size` bytes.
fn parse_in_chunks(
    text: &[u8],
    chunk_size: usize,
    threads: usize,
) -> Result<Vec<Polygon>, WktIoError> {
    let chunks = if threads > 1 {
        line_chunks(text, chunk_size)
    } else {
        vec![text]
    };
    let threads = threads.clamp(1, chunks.len().max(1));
    let parsed: Vec<ChunkResult> = if threads == 1 {
        chunks.iter().map(|c| parse_chunk(c)).collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, ChunkResult)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks.get(k) else {
                                break mine;
                            };
                            mine.push((k, parse_chunk(chunk)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("WKT parse worker panicked"))
                .collect()
        });
        done.sort_unstable_by_key(|&(k, _)| k);
        done.into_iter().map(|(_, r)| r).collect()
    };
    let mut out = Vec::with_capacity(parsed.iter().map(|r| r.as_ref().map_or(0, Vec::len)).sum());
    for (chunk, result) in chunks.iter().zip(parsed) {
        match result {
            Ok(polys) => out.extend(polys),
            Err(LineError::Utf8) => {
                return Err(WktIoError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )))
            }
            Err(LineError::Wkt(line, e)) => {
                // 1-based line number: the lines of every earlier chunk,
                // then the line within this one.
                let start = chunk.as_ptr() as usize - text.as_ptr() as usize;
                let before = text[..start].iter().filter(|&&b| b == b'\n').count();
                return Err(WktIoError::Parse(before + line + 1, e));
            }
        }
    }
    Ok(out)
}

/// The first failure in a chunk: a line that is not UTF-8, or one that
/// does not parse (0-based line number within the chunk).
enum LineError {
    Utf8,
    Wkt(usize, WktError),
}

type ChunkResult = Result<Vec<Polygon>, LineError>;

/// Splits `text` into chunks of at least `size` bytes that each end
/// just after a newline (the last one at the end of `text`).
fn line_chunks(text: &[u8], size: usize) -> Vec<&[u8]> {
    let mut chunks = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let end = match rest
            .get(size..)
            .and_then(|t| t.iter().position(|&b| b == b'\n'))
        {
            Some(nl) => size + nl + 1,
            None => rest.len(),
        };
        let (chunk, tail) = rest.split_at(end);
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// Parses one line-aligned chunk, stopping at its first bad line.
fn parse_chunk(chunk: &[u8]) -> ChunkResult {
    let mut out = Vec::new();
    for (idx, line) in chunk.split(|&b| b == b'\n').enumerate() {
        let line = std::str::from_utf8(line).map_err(|_| LineError::Utf8)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push(polygon_from_wkt(trimmed).map_err(|e| LineError::Wkt(idx, e))?);
    }
    Ok(out)
}

/// Writes polygons as WKT, one per line.
pub fn write_wkt_polygons<W: Write>(w: &mut W, polys: &[Polygon]) -> std::io::Result<()> {
    for p in polys {
        writeln!(w, "{}", polygon_to_wkt(p))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stj_geom::Rect;

    #[test]
    fn roundtrip() {
        let polys = vec![
            Polygon::rect(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
            Polygon::from_coords(
                vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
                vec![vec![(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)]],
            )
            .unwrap(),
        ];
        let mut buf = Vec::new();
        write_wkt_polygons(&mut buf, &polys).unwrap();
        let parsed = read_wkt_polygons(buf.as_slice()).unwrap();
        assert_eq!(parsed, polys);
    }

    #[test]
    fn skips_blanks_and_comments() {
        let text = "\n# header comment\nPOLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))\n\n";
        let parsed = read_wkt_polygons(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let text = "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))\nGARBAGE\n";
        match read_wkt_polygons(text.as_bytes()) {
            Err(WktIoError::Parse(line, _)) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[track_caller]
    fn expect_parse_error(text: &str, line: usize) {
        match read_wkt_polygons(text.as_bytes()) {
            Err(WktIoError::Parse(got, e)) => {
                assert_eq!(got, line, "wrong line for {e}");
            }
            other => panic!("expected parse error at line {line}, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_coordinates_with_line_numbers() {
        // Literal NaN/inf tokens.
        expect_parse_error("# ok\nPOLYGON ((0 0, 1 0, NaN 1, 0 0))\n", 2);
        expect_parse_error("POLYGON ((0 0, inf 0, 1 1, 0 0))\n", 1);
        // Overflowing scientific notation parses to f64 infinity and must
        // be rejected too, not silently constructed.
        expect_parse_error(
            "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))\nPOLYGON ((0 0, 1e999 0, 1 1, 0 0))\n",
            2,
        );
    }

    #[test]
    fn parallel_parse_matches_sequential() {
        // Lines of every kind across many chunks: polygons, blanks,
        // comments, CRLF endings, and no newline after the last line.
        let mut text = String::new();
        for i in 0..4000 {
            match i % 7 {
                0 => text.push('\n'),
                1 => text.push_str("# comment\n"),
                2 => text.push_str(&format!("POLYGON (({i} 0, {} 0, {i} 1, {i} 0))\r\n", i + 1)),
                _ => text.push_str(&format!(
                    "POLYGON (({i} 0, {} 0, {} 1, {i} 1, {i} 0))\n",
                    i + 2,
                    i + 2
                )),
            }
        }
        text.push_str("POLYGON ((0 0, 1 0, 1 1, 0 0))");
        let want = read_wkt_polygons(text.as_bytes()).unwrap();
        assert_eq!(want.len(), 4000 - 2 * 572 + 1);
        assert!(line_chunks(text.as_bytes(), 1000).len() > 100);
        for threads in [1, 2, 3] {
            assert!(parse_in_chunks(b"", 1000, threads).unwrap().is_empty());
            assert_eq!(
                parse_in_chunks(text.as_bytes(), 1000, threads).unwrap(),
                want
            );
        }
    }

    #[test]
    fn parallel_parse_names_the_first_bad_line() {
        // A long valid prefix, then two bad lines in later chunks: the
        // error names the first of them, whatever the worker count.
        let mut text = "POLYGON ((0 0, 1 0, 1 1, 0 0))\n".repeat(3_000);
        text.push_str("# comment\nGARBAGE\n");
        text.push_str(&"POLYGON ((0 0, 1 0, 1 1, 0 0))\n".repeat(2_000));
        text.push_str("POLYGON ((0 0, 1 1, 0 0))\n");
        for threads in [1, 2, 4] {
            match parse_in_chunks(text.as_bytes(), 4096, threads) {
                Err(WktIoError::Parse(line, _)) => assert_eq!(line, 3_002),
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        // Invalid UTF-8 is an IO error, as `BufRead::lines` reports it.
        let mut bytes = text.into_bytes();
        bytes.splice(
            0..0,
            b"POLYGON ((0 0, 1 0, 1 1, 0 0))\n\xFF\n".iter().copied(),
        );
        match parse_in_chunks(&bytes, 4096, 2) {
            Err(WktIoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected an IO error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_rings_with_too_few_distinct_points() {
        // Fewer than 3 points.
        expect_parse_error("POLYGON ((0 0, 1 1, 0 0))\n", 1);
        // 4 points, but only 2 distinct (non-consecutive duplicates).
        expect_parse_error("POLYGON ((0 0, 1 1, 0 0, 1 1, 0 0))\n", 1);
        // A degenerate hole poisons the polygon as well.
        expect_parse_error(
            "POLYGON ((0 0, 9 0, 9 9, 0 9, 0 0), (2 2, 3 3, 2 2, 3 3, 2 2))\n",
            1,
        );
    }
}

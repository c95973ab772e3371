//! Plain-text CSV interchange for RTT series.
//!
//! The original NetDyn workflow wrote measurement logs to flat files for
//! offline analysis; this module provides the same capability so series can
//! move between probenet and external tools (gnuplot, R, spreadsheets)
//! without a serde dependency on the consumer side.
//!
//! Format (metadata comments, header, then one row per probe in sequence
//! order; empty fields for lost probes):
//!
//! ```text
//! # interval_ns=50000000
//! # wire_bytes=72
//! # clock_resolution_ns=0
//! seq,sent_at_ns,echoed_at_ns,rtt_ns
//! 0,0,71214771,142429542
//! 1,50000000,,
//! ```

use std::fmt::Write as _;

use probenet_sim::SimDuration;

use crate::series::{RttRecord, RttSeries};

/// Errors raised when parsing a CSV series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The header line is missing or wrong.
    BadHeader,
    /// A data row has the wrong number of fields.
    BadRow {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as an integer.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
    },
    /// A row's `seq` is not its row index: a probe is missing, repeated or
    /// out of order. The analyses read loss off the rows, so a gap would
    /// hide the missing probes' losses.
    OutOfSequence {
        /// 1-based line number.
        line: usize,
        /// The row index, which is the `seq` this row must carry.
        expected: u64,
        /// The `seq` the row carries.
        found: u64,
    },
    /// The header came without a nonzero `interval_ns` or `wire_bytes`
    /// comment before it; δ and P enter every analysis.
    MissingMetadata {
        /// 1-based line number of the header.
        line: usize,
        /// The missing key.
        key: &'static str,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::BadHeader => write!(f, "missing or invalid CSV header"),
            CsvError::BadRow { line } => write!(f, "line {line}: wrong field count"),
            CsvError::BadField { line, column } => {
                write!(f, "line {line}: invalid {column}")
            }
            CsvError::OutOfSequence {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: seq {found} where seq {expected} belongs (one row per probe, in order)"
            ),
            CsvError::MissingMetadata { line, key } => {
                write!(f, "line {line}: header without a nonzero `# {key}=` before it")
            }
        }
    }
}

impl std::error::Error for CsvError {}

const HEADER: &str = "seq,sent_at_ns,echoed_at_ns,rtt_ns";

/// Serialize a series to CSV. Metadata (interval, wire size, clock) rides
/// in `#`-prefixed comment lines so the file is self-describing.
pub fn to_csv(series: &RttSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# interval_ns={}", series.interval_ns);
    let _ = writeln!(out, "# wire_bytes={}", series.wire_bytes);
    let _ = writeln!(out, "# clock_resolution_ns={}", series.clock_resolution_ns);
    out.push_str(HEADER);
    out.push('\n');
    for r in &series.records {
        let _ = write!(out, "{},{},", r.seq, r.sent_at);
        if let Some(e) = r.echoed_at {
            let _ = write!(out, "{e}");
        }
        out.push(',');
        if let Some(rtt) = r.rtt {
            let _ = write!(out, "{rtt}");
        }
        out.push('\n');
    }
    out
}

/// Parse a series from CSV produced by [`to_csv`] (or hand-written in the
/// same format).
///
/// The `interval_ns` and `wire_bytes` comments must come before the header
/// and be nonzero; `clock_resolution_ns` may be left out and defaults to 0,
/// an ideal clock. After the header, `#` lines are plain comments. Row `i`
/// (from 0) must carry `seq` `i`, as [`to_csv`] writes it, so a file that
/// skips, repeats or reorders probes is rejected rather than analysed as if
/// the missing probes had never been sent.
pub fn from_csv(text: &str) -> Result<RttSeries, CsvError> {
    let mut interval_ns = 0u64;
    let mut wire_bytes = 0u32;
    let mut clock_ns = 0u64;
    let mut records = Vec::new();
    let mut saw_header = false;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix('#') {
            if saw_header {
                continue;
            }
            let meta = meta.trim();
            if let Some(v) = meta.strip_prefix("interval_ns=") {
                interval_ns = v.parse().map_err(|_| CsvError::BadField {
                    line: line_no,
                    column: "interval_ns",
                })?;
            } else if let Some(v) = meta.strip_prefix("wire_bytes=") {
                wire_bytes = v.parse().map_err(|_| CsvError::BadField {
                    line: line_no,
                    column: "wire_bytes",
                })?;
            } else if let Some(v) = meta.strip_prefix("clock_resolution_ns=") {
                clock_ns = v.parse().map_err(|_| CsvError::BadField {
                    line: line_no,
                    column: "clock_resolution_ns",
                })?;
            }
            continue;
        }
        if !saw_header {
            if line != HEADER {
                return Err(CsvError::BadHeader);
            }
            for (key, value) in [
                ("interval_ns", interval_ns),
                ("wire_bytes", u64::from(wire_bytes)),
            ] {
                if value == 0 {
                    return Err(CsvError::MissingMetadata { line: line_no, key });
                }
            }
            saw_header = true;
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(CsvError::BadRow { line: line_no });
        }
        let seq: u64 = fields[0].parse().map_err(|_| CsvError::BadField {
            line: line_no,
            column: "seq",
        })?;
        let expected = records.len() as u64;
        if seq != expected {
            return Err(CsvError::OutOfSequence {
                line: line_no,
                expected,
                found: seq,
            });
        }
        let sent_at = fields[1].parse().map_err(|_| CsvError::BadField {
            line: line_no,
            column: "sent_at_ns",
        })?;
        let echoed_at = if fields[2].is_empty() {
            None
        } else {
            Some(fields[2].parse().map_err(|_| CsvError::BadField {
                line: line_no,
                column: "echoed_at_ns",
            })?)
        };
        let rtt = if fields[3].is_empty() {
            None
        } else {
            Some(fields[3].parse().map_err(|_| CsvError::BadField {
                line: line_no,
                column: "rtt_ns",
            })?)
        };
        records.push(RttRecord {
            seq,
            sent_at,
            echoed_at,
            rtt,
        });
    }
    if !saw_header {
        return Err(CsvError::BadHeader);
    }
    Ok(RttSeries::new(
        SimDuration::from_nanos(interval_ns),
        wire_bytes,
        SimDuration::from_nanos(clock_ns),
        records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RttSeries {
        RttSeries::new(
            SimDuration::from_millis(50),
            72,
            SimDuration::from_nanos(3_906_250),
            vec![
                RttRecord {
                    seq: 0,
                    sent_at: 0,
                    echoed_at: Some(71_000_000),
                    rtt: Some(142_000_000),
                },
                RttRecord {
                    seq: 1,
                    sent_at: 50_000_000,
                    echoed_at: None,
                    rtt: None,
                },
            ],
        )
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let csv = to_csv(&s);
        let back = from_csv(&csv).expect("parse");
        assert_eq!(back.records, s.records);
        assert_eq!(back.interval_ns, s.interval_ns);
        assert_eq!(back.wire_bytes, s.wire_bytes);
        assert_eq!(back.clock_resolution_ns, s.clock_resolution_ns);
    }

    #[test]
    fn lost_probe_has_empty_fields() {
        let csv = to_csv(&sample());
        let lost_row = csv.lines().last().expect("rows");
        assert_eq!(lost_row, "1,50000000,,");
    }

    #[test]
    fn header_is_mandatory() {
        assert_eq!(from_csv("1,2,3,4\n").unwrap_err(), CsvError::BadHeader);
        assert_eq!(from_csv("").unwrap_err(), CsvError::BadHeader);
    }

    /// The two required metadata lines, so a test's header is line 3.
    const META: &str = "# interval_ns=50000000\n# wire_bytes=72\n";

    #[test]
    fn bad_rows_are_located() {
        let text = format!("{META}{HEADER}\n0,0,,\n1,2,3\n");
        assert_eq!(from_csv(&text).unwrap_err(), CsvError::BadRow { line: 5 });
        let text = format!("{META}{HEADER}\nx,0,,\n");
        assert!(matches!(
            from_csv(&text),
            Err(CsvError::BadField {
                line: 4,
                column: "seq"
            })
        ));
    }

    #[test]
    fn rows_out_of_sequence_are_rejected_at_their_line() {
        // (rows, line, expected seq, found seq). A gap (probes 2-4 missing)
        // would otherwise read as 4 probes and no loss.
        for (rows, line, expected, found) in [
            ("0,0,,1\n1,1,,1\n5,5,,1\n6,6,,1\n", 6, 2, 5),
            ("5,0,,1\n5,0,,1\n2,0,,1\n", 4, 0, 5),
            ("0,0,,1\n0,0,,1\n", 5, 1, 0),
        ] {
            let text = format!("{META}{HEADER}\n{rows}");
            assert_eq!(
                from_csv(&text).unwrap_err(),
                CsvError::OutOfSequence {
                    line,
                    expected,
                    found
                },
                "{rows}"
            );
        }
    }

    #[test]
    fn interval_and_wire_size_are_required_and_nonzero() {
        let text = format!("{HEADER}\n0,0,,150000000\n");
        assert_eq!(
            from_csv(&text).unwrap_err(),
            CsvError::MissingMetadata {
                line: 1,
                key: "interval_ns"
            }
        );
        let text = format!("# interval_ns=50000000\n{HEADER}\n0,0,,150000000\n");
        assert_eq!(
            from_csv(&text).unwrap_err(),
            CsvError::MissingMetadata {
                line: 2,
                key: "wire_bytes"
            }
        );
        let text = format!("# interval_ns=0\n# wire_bytes=72\n{HEADER}\n");
        assert!(matches!(
            from_csv(&text),
            Err(CsvError::MissingMetadata {
                key: "interval_ns",
                ..
            })
        ));
        // Metadata after the header is a plain comment, not a late default.
        let text = format!("{HEADER}\n# interval_ns=50000000\n# wire_bytes=72\n");
        assert!(matches!(
            from_csv(&text),
            Err(CsvError::MissingMetadata { line: 1, .. })
        ));
    }

    #[test]
    fn clock_resolution_defaults_to_an_ideal_clock() {
        let text = format!("{META}{HEADER}\n0,0,,150000000\n");
        let s = from_csv(&text).expect("parse");
        assert_eq!(s.interval_ns, 50_000_000);
        assert_eq!(s.clock_resolution_ns, 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.received(), 1);
    }

    #[test]
    fn blank_lines_and_unknown_comments_are_ignored() {
        let text = format!("# made by hand\n{META}\n{HEADER}\n\n# note\n0,0,,150000000\n");
        let s = from_csv(&text).expect("parse");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn error_display() {
        assert!(CsvError::BadHeader.to_string().contains("header"));
        assert!(CsvError::BadRow { line: 7 }.to_string().contains('7'));
        let gap = CsvError::OutOfSequence {
            line: 9,
            expected: 2,
            found: 5,
        };
        assert!(gap.to_string().starts_with("line 9:"), "{gap}");
        let meta = CsvError::MissingMetadata {
            line: 1,
            key: "wire_bytes",
        };
        assert!(meta.to_string().contains("wire_bytes"), "{meta}");
    }
}

//! # ninja-bench — the table/figure regeneration harness
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | target | regenerates |
//! |---|---|
//! | `table2` | Table II — hotplug & link-up per interconnect combo |
//! | `fig6` | Fig. 6 — Ninja overhead on memtest vs. memory footprint |
//! | `fig7` | Fig. 7 — NPB class D baseline vs. proposed |
//! | `fig8` | Fig. 8 — fallback/recovery per-iteration timeline |
//! | `scalability` | Section V's scalability discussion (extension) |
//! | `ablation` | design-choice ablations from DESIGN.md |
//!
//! Each binary prints a human-readable table, appends machine-readable
//! JSON to `results/`, and asserts the paper's qualitative claims (who
//! wins, what is constant, what grows) so a regression in the model
//! fails the harness loudly.

use ninja_sim::{JsonReader, JsonToken};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The Fig. 6 / 7 testbed builder (re-exported from
/// `ninja_workloads::scenarios` so every consumer uses the same setup).
pub use ninja_workloads::two_ib_clusters;

/// Re-exported so `impl_write_json!` users need only depend on
/// `ninja_bench`.
pub use ninja_sim::{JsonWriter, WriteJson};

/// Derive a [`WriteJson`] impl for a plain result struct by listing its
/// fields — the in-repo stand-in for `#[derive(Serialize)]`:
///
/// ```
/// struct Row {
///     vms: usize,
///     total_s: f64,
/// }
/// ninja_bench::impl_write_json!(Row { vms, total_s });
/// let j = ninja_bench::WriteJson::to_json_compact(&Row { vms: 4, total_s: 1.5 });
/// assert_eq!(j, r#"{"vms":4,"total_s":1.5}"#);
/// ```
#[macro_export]
macro_rules! impl_write_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::WriteJson for $ty {
            fn write_json<W: ::std::fmt::Write + ?Sized>(
                &self,
                w: &mut $crate::JsonWriter<'_, W>,
            ) -> ::std::fmt::Result {
                w.begin_object()?;
                $(w.field(stringify!($field), &self.$field)?;)+
                w.end_object()
            }
        }
    };
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize]| -> String {
        let mut s = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            s.push_str(&format!(" {c:<w$} |"));
        }
        s
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&line(&hdr, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Write a serializable result to `results/<name>.json` (relative to the
/// workspace root if it exists, else the current directory).
pub fn write_json<T: WriteJson + ?Sized>(name: &str, value: &T) {
    let dir = if Path::new("results").exists() || std::fs::create_dir_all("results").is_ok() {
        "results"
    } else {
        "."
    };
    let path = format!("{dir}/{name}.json");
    let written = ninja_sim::export::overwrite_file(&path, |out| {
        value.write_json(&mut JsonWriter::pretty(out))
    });
    if let Err(e) = written {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("(wrote {path})");
    }
}

/// Appends `run`, one JSON value rendered pretty, to the JSON array of
/// run records in the file at `path` (the `BENCH_*.json` trend files)
/// as text: the file's bytes up to its last run stay as they are, and
/// `,`, the run one level in and a new closing `]` are written over the
/// line break and `]` that followed it (what follows the `]` is kept),
/// with [`overwrite_file`](ninja_sim::export::overwrite_file)'s
/// in-place rule. A missing or blank file starts a new array. Any other
/// file that is not one JSON array (a truncated one, say) is left
/// untouched and reported as an error, so no append loses the history
/// before it.
pub fn append_run(path: &Path, run: &str) -> io::Result<()> {
    let old = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        read => read?,
    };
    let (head, tail) = if old.trim().is_empty() {
        ("[", "\n")
    } else {
        let close = closing_bracket(&old).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("not a JSON array of runs: {e}"),
            )
        })?;
        (old[..close].trim_end(), &old[close + 1..])
    };
    let comma = if head.ends_with('[') { "" } else { "," };
    let run = run.replace('\n', "\n  ");
    ninja_sim::export::overwrite_file(path, |out| write!(out, "{head}{comma}\n  {run}\n]{tail}"))
}

/// Appends one invocation's record, `{"unix_time", "mode", "bench",
/// "rows"}`, to the trend file at `path` with [`append_run`], and says
/// so; exits nonzero if the file is not a JSON array of records.
pub fn append_bench<R: WriteJson>(path: &str, bench: &str, mode: &str, rows: &[R]) {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let run = ninja_sim::export::render(0, |out| {
        let mut w = JsonWriter::pretty(out);
        w.begin_object()?;
        w.field("unix_time", &unix_time)?;
        w.field("mode", mode)?;
        w.field("bench", bench)?;
        w.field("rows", rows)?;
        w.end_object()
    });
    if let Err(e) = append_run(Path::new(path), &run) {
        eprintln!("error: could not append to {path}: {e}");
        std::process::exit(1);
    }
    println!("(appended to {path})");
}

/// The offset of the closing `]` of `text`, when `text` is one JSON
/// array (whitespace may follow it).
fn closing_bracket(text: &str) -> Result<usize, String> {
    let mut reader = JsonReader::new(text);
    let token = reader.value().map_err(|e| e.to_string())?;
    if token != JsonToken::Array {
        return Err("the document is not an array".to_string());
    }
    reader
        .skip_rest(&token)
        .and_then(|()| reader.finish())
        .map_err(|e| e.to_string())?;
    Ok(text.trim_end().len() - 1)
}

/// Render horizontal stacked bars in ASCII — a terminal rendition of
/// the paper's stacked-bar figures. `segments` maps a segment name to
/// its per-bar values (same length as `labels`).
pub fn render_stacked_bars(
    labels: &[String],
    segments: &[(&str, Vec<f64>)],
    unit: &str,
    width: usize,
) -> String {
    let glyphs = ['#', '=', '-', '.', '+', '~'];
    let totals: Vec<f64> = (0..labels.len())
        .map(|i| segments.iter().map(|(_, v)| v[i]).sum())
        .collect();
    let max_total = totals.iter().cloned().fold(1e-12, f64::max);
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (i, label) in labels.iter().enumerate() {
        out.push_str(&format!("{label:>label_w$} |"));
        for (si, (_, values)) in segments.iter().enumerate() {
            let cells = (values[i] / max_total * width as f64).round() as usize;
            for _ in 0..cells {
                out.push(glyphs[si % glyphs.len()]);
            }
        }
        out.push_str(&format!(" {:.1}{unit}\n", totals[i]));
    }
    out.push_str(&format!("{:>label_w$}  legend:", ""));
    for (si, (name, _)) in segments.iter().enumerate() {
        out.push_str(&format!(" {}={}", glyphs[si % glyphs.len()], name));
    }
    out.push('\n');
    out
}

/// Assert a qualitative claim, printing PASS/FAIL; returns the outcome.
pub fn claim(desc: &str, ok: bool) -> bool {
    println!("  [{}] {desc}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Exit nonzero if any claim failed (call at the end of a binary).
pub fn finish(all_ok: bool) {
    if !all_ok {
        eprintln!("some claims FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["combo", "hotplug"],
            &[
                vec!["IB->IB".into(), "3.88".into()],
                vec!["Eth->Eth".into(), "0.13".into()],
            ],
        );
        assert!(t.contains("| combo    | hotplug |"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn stacked_bars_render() {
        let bars = render_stacked_bars(
            &["2 GiB".into(), "16 GiB".into()],
            &[
                ("migration", vec![15.5, 52.4]),
                ("hotplug", vec![13.2, 13.3]),
                ("linkup", vec![29.9, 29.8]),
            ],
            "s",
            40,
        );
        assert!(bars.contains("2 GiB"));
        assert!(bars.contains("legend: #=migration"));
        // The larger bar has more cells.
        let lines: Vec<&str> = bars.lines().collect();
        assert!(lines[1].matches('#').count() > lines[0].matches('#').count());
    }

    #[test]
    fn claim_reports() {
        assert!(claim("true thing", true));
        assert!(!claim("false thing", false));
    }
}

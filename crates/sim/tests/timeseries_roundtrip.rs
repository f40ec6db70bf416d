//! Round-trip property tests for the time-series exporters: every
//! sample the recorder holds must be exactly recoverable from the
//! JSONL, CSV, and timestamped-Prometheus text forms.

use ninja_json_tree::parse;
use ninja_sim::{MetricsRegistry, SimDuration, SimRng, SimTime, TimeSeriesRecorder, Trace};

/// Drive a recorder over a seeded pseudo-random workload: counters,
/// gauges (including labeled and awkward label values), and a
/// histogram, mutated between scrapes.
fn seeded_recorder(seed: u64, scrapes: usize) -> TimeSeriesRecorder {
    let mut rng = SimRng::new(seed);
    let mut m = MetricsRegistry::new();
    let mut tr = Trace::new();
    let mut rec = TimeSeriesRecorder::new(SimDuration::from_secs(30));
    rec.start_at(SimTime::ZERO, &mut m, &mut tr);
    let mut t = SimTime::ZERO;
    for _ in 0..scrapes {
        m.inc("jobs_total", &[("kind", "evac")], rng.below(5));
        m.inc("jobs_total", &[("kind", "drain")], rng.below(3));
        m.set_gauge("depth", &[], rng.below(100) as f64 / 4.0);
        m.set_gauge("weird", &[("k", "a,b\"c")], rng.below(10) as f64);
        m.observe("lat_seconds", &[], (1 + rng.below(999)) as f64 / 1000.0);
        t += SimDuration::from_secs(30);
        rec.advance_to(t, &mut m, &mut tr);
    }
    rec
}

#[test]
fn jsonl_round_trips_every_sample() {
    for seed in [1u64, 2013, 0xfeed] {
        let rec = seeded_recorder(seed, 8);
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), rec.samples().len(), "one line per scrape");
        for (line, sample) in lines.iter().zip(rec.samples()) {
            let doc = parse(line).expect("JSONL line parses");
            assert_eq!(doc["t_ns"].as_u64(), Some(sample.at.as_nanos()));
            let points = doc["points"].as_array().unwrap();
            assert_eq!(points.len(), sample.points.len());
            for (j, p) in points.iter().zip(&sample.points) {
                assert_eq!(j["name"].as_str(), Some(p.name.as_str()));
                assert_eq!(j["value"].as_f64(), Some(p.value));
                if p.labels.is_empty() {
                    assert!(j["labels"].is_null());
                } else {
                    for (k, v) in &p.labels {
                        assert_eq!(j["labels"][k.as_str()].as_str(), Some(v.as_str()));
                    }
                }
            }
        }
    }
}

#[test]
fn csv_round_trips_every_point() {
    for seed in [1u64, 2013] {
        let rec = seeded_recorder(seed, 6);
        let csv = rec.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_ns,name,labels,value"));
        let total: usize = rec.samples().iter().map(|s| s.points.len()).sum();
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), total, "one row per point");
        // Each row starts with its sample's timestamp and ends with a
        // value that parses back to the recorded f64.
        let mut i = 0;
        for s in rec.samples() {
            for p in &s.points {
                let row = rows[i];
                i += 1;
                assert!(
                    row.starts_with(&format!("{},{},", s.at.as_nanos(), p.name)),
                    "row {row} vs point {} at {}",
                    p.name,
                    s.at.as_nanos()
                );
                let value: f64 = row.rsplit(',').next().unwrap().parse().unwrap();
                assert_eq!(value, p.value, "row {row}");
            }
        }
    }
}

#[test]
fn prometheus_text_is_typed_timestamped_and_complete() {
    let rec = seeded_recorder(2013, 6);
    let text = rec.to_prometheus();
    // Every series name appears exactly once as a # TYPE header.
    for (name, kind) in [
        ("jobs_total", "counter"),
        ("depth", "gauge"),
        ("weird", "gauge"),
        ("lat_seconds_count", "counter"),
        ("lat_seconds_sum", "counter"),
    ] {
        assert_eq!(
            text.matches(&format!("# TYPE {name} {kind}\n")).count(),
            1,
            "{name} header"
        );
    }
    // Every recorded point has a matching exposition line, and within
    // the text each series' timestamps are non-decreasing.
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let total: usize = rec.samples().iter().map(|s| s.points.len()).sum();
    assert_eq!(lines.len(), total, "one line per recorded point");
    for s in rec.samples() {
        let ms = s.at.as_nanos() / 1_000_000;
        for p in &s.points {
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with(p.name.as_str()) && l.ends_with(&format!(" {ms}"))),
                "point {} @ {ms}ms missing",
                p.name
            );
        }
    }
    let mut per_series: std::collections::BTreeMap<&str, u64> = Default::default();
    for l in &lines {
        let (series, rest) = l.rsplit_once(' ').unwrap();
        let series = series.rsplit_once(' ').map_or(series, |(s, _)| s);
        let ts: u64 = rest.parse().unwrap();
        let prev = per_series.entry(series).or_insert(0);
        assert!(*prev <= ts, "series {series} went back in time");
        *prev = ts;
    }
}

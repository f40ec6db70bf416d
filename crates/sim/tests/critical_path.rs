//! The indexed critical-path matcher must reconstruct exactly what the
//! original all-pairs scan did. The scan is kept here as the reference
//! and both run over seeded random span soups: envelopes, phases and
//! per-VM spans with colliding, missing and unparsable `job`/`mig`
//! labels, VM spans without a `vm` label, and out-of-window starts.

use ninja_sim::{
    critical_paths, MigrationPath, PhaseAttribution, SimDuration, SimRng, SimTime, Trace,
};

const PHASES: [&str; 3] = ["detach", "migration", "attach"];

/// One span of the soup, as the reference matcher sees it.
#[derive(Debug, Clone)]
struct Span {
    component: &'static str,
    name: &'static str,
    start: SimTime,
    end: SimTime,
    labels: Vec<(&'static str, String)>,
}

impl Span {
    fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn span_key(s: &Span) -> (Option<u64>, Option<u64>) {
    let get = |k: &str| s.label(k).and_then(|v| v.parse().ok());
    (get("job"), get("mig"))
}

/// The quadratic matcher the library used to ship, verbatim in logic.
fn critical_paths_reference(spans: &[Span], phase_names: &[&str]) -> Vec<MigrationPath> {
    let mut used = vec![false; spans.len()];
    let mut out = Vec::new();
    for (ei, env) in spans.iter().enumerate() {
        if env.component != "ninja" || env.name != "ninja" {
            continue;
        }
        let key = span_key(env);
        let (job, mig) = key;
        used[ei] = true;
        let mut phases = Vec::new();
        let mut attributed = SimDuration::ZERO;
        for &pn in phase_names {
            let found = spans.iter().enumerate().find(|(pi, p)| {
                !used[*pi]
                    && p.component == "ninja"
                    && p.name == pn
                    && span_key(p) == key
                    && p.start >= env.start
                    && p.start <= env.end
            });
            let Some((pi, p)) = found else {
                continue;
            };
            used[pi] = true;
            attributed += p.duration();
            let mut critical: Option<(&str, SimDuration)> = None;
            for (vi, vs) in spans.iter().enumerate() {
                if used[vi]
                    || vs.component != "symvirt"
                    || vs.name != pn
                    || span_key(vs) != key
                    || vs.start < p.start
                    || vs.start > p.end
                {
                    continue;
                }
                let Some(vm) = vs.label("vm") else { continue };
                used[vi] = true;
                let d = vs.duration();
                let better = match critical {
                    None => true,
                    Some((cur_vm, cur_d)) => d > cur_d || (d == cur_d && vm < cur_vm),
                };
                if better {
                    critical = Some((vm, d));
                }
            }
            phases.push(PhaseAttribution {
                phase: pn.to_string(),
                duration: p.duration(),
                critical_vm: critical.map(|(vm, _)| vm.to_string()),
                critical_vm_duration: critical.map_or(SimDuration::ZERO, |(_, d)| d),
            });
        }
        let mut dominant = String::new();
        let mut best: Option<SimDuration> = None;
        for p in &phases {
            if best.map_or(true, |b| p.duration > b) {
                best = Some(p.duration);
                dominant = p.phase.clone();
            }
        }
        out.push(MigrationPath {
            job,
            mig,
            start: env.start,
            end: env.end,
            blackout: env.duration(),
            attributed,
            phases,
            dominant,
        });
    }
    out
}

fn pick<'a>(rng: &mut SimRng, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len() as u64) as usize]
}

/// A random span soup of up to `n` spans over a short time axis, so
/// windows overlap and matches compete.
fn random_spans(rng: &mut SimRng, n: usize) -> Vec<Span> {
    let len = 1 + rng.below(n as u64) as usize;
    (0..len)
        .map(|_| {
            let component = pick(rng, &["ninja", "ninja", "symvirt", "symvirt", "mpi"]);
            let name = pick(rng, &["ninja", "detach", "migration", "attach", "linkup"]);
            let start = SimTime::from_nanos(rng.below(40) * 1_000_000_000);
            let end = start + SimDuration::from_secs(rng.below(15));
            let mut labels = Vec::new();
            for key in ["job", "mig"] {
                match rng.below(5) {
                    0 => {}
                    1 => labels.push((key, "x".to_string())),
                    v => labels.push((key, (v % 2).to_string())),
                }
            }
            if rng.below(4) != 0 {
                // Few VM names, so equal-duration ties break by name.
                labels.push(("vm", format!("vm{}", rng.below(3))));
            }
            Span {
                component,
                name,
                start,
                end,
                labels,
            }
        })
        .collect()
}

#[test]
fn indexed_matcher_equals_the_all_pairs_scan() {
    let mut rng = SimRng::new(0xc417);
    for round in 0..2000 {
        let spans = random_spans(&mut rng, 40);
        // Include the envelope name as a phase now and then: a phase
        // may then consume a later envelope, which must still be seen.
        let phases: &[&str] = if round % 7 == 0 {
            &["detach", "ninja", "attach"]
        } else {
            &PHASES
        };
        let mut trace = Trace::new();
        for s in &spans {
            let mut labels = trace.add_span(s.component, s.name, s.start, s.end);
            for (k, v) in &s.labels {
                labels = labels.label(*k, v);
            }
        }
        let got = critical_paths(&trace, phases);
        let want = critical_paths_reference(&spans, phases);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "round {round}: {spans:?}"
        );
    }
}

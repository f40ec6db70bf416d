//! Declarative alert rules evaluated over virtual-time metric scrapes.
//!
//! An [`AlertEngine`] holds a set of [`AlertRule`]s and is evaluated by
//! the [time-series recorder](crate::timeseries::TimeSeriesRecorder) at
//! every scrape. Three expression kinds cover the paper's operational
//! questions (Section IV: where does migration time go, and when does
//! it go wrong):
//!
//! * **threshold** — the current value of a series crosses a bound
//!   (`queue-backlog: ninja_fleet_queue_depth > 8`);
//! * **rate** — the per-second increase between consecutive scrapes
//!   crosses a bound (`churn: rate ninja_migrations_total > 0.5`);
//! * **burn** — SLO burn rate: the observed consumption rate of an
//!   error budget, normalized so `1` means "exactly on budget"
//!   (`blackout-burn: burn ninja_phase_duration_seconds_sum budget 60
//!   per 3600 > 1` fires when blackout accrues faster than 60 s per
//!   hour).
//!
//! Rules are written in a one-line-per-rule grammar (see [`parse_rules`])
//! so the CLI can take them inline, from a file, or use
//! [`default_rules`]. Fire/resolve transitions are recorded by the
//! scraper as trace instants and as the
//! `ninja_alerts_fired_total{rule=...}` counter plus the
//! `ninja_alerts_active` gauge; the full incident log (fired/resolved
//! pairs in virtual time) is exposed via [`AlertEngine::incidents`] and
//! lands in the fleet SLO report.

use crate::export::{JsonWriter, WriteJson};
use crate::metrics::LabelSet;
use crate::time::SimTime;
use std::fmt;

/// Comparison operator of an alert condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertCmp {
    /// Fires while the observed value is strictly greater.
    Gt,
    /// Fires while the observed value is strictly smaller.
    Lt,
}

impl fmt::Display for AlertCmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertCmp::Gt => ">",
            AlertCmp::Lt => "<",
        })
    }
}

/// A reference to scraped series: a metric name plus an optional exact
/// label set. Without labels the reference sums every label set of the
/// metric; a missing metric reads as `0`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRef {
    /// Metric (or derived `_sum`/`_count`) series name.
    pub name: String,
    /// Exact label match; `None` sums all label sets.
    pub labels: Option<LabelSet>,
}

impl SeriesRef {
    /// Whether a scraped series (point name plus labels) is referenced.
    pub fn matches(&self, name: &str, labels: &LabelSet) -> bool {
        self.name == name && self.labels.as_ref().map_or(true, |want| want == labels)
    }
}

impl fmt::Display for SeriesRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if let Some(labels) = &self.labels {
            let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            write!(f, "{{{}}}", parts.join(","))?;
        }
        Ok(())
    }
}

/// What an alert rule measures at each scrape.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertExpr {
    /// The series value itself.
    Threshold(SeriesRef),
    /// Per-second increase since the previous scrape (false on the
    /// first scrape, when there is no previous sample).
    Rate(SeriesRef),
    /// SLO burn rate: observed per-second increase divided by the
    /// budgeted per-second allowance (`budget / per_s`). A value of 1
    /// consumes the budget exactly; above 1 the SLO is burning down.
    Burn {
        /// The budget-consuming series (e.g. blackout seconds).
        series: SeriesRef,
        /// Allowed consumption per window.
        budget: f64,
        /// Window length in (virtual) seconds.
        per_s: f64,
    },
}

impl AlertExpr {
    /// The series the expression reads.
    pub fn series(&self) -> &SeriesRef {
        match self {
            AlertExpr::Threshold(s) | AlertExpr::Rate(s) | AlertExpr::Burn { series: s, .. } => s,
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (becomes the `rule` label of fire events).
    pub name: String,
    /// The measured expression.
    pub expr: AlertExpr,
    /// Comparison against [`AlertRule::value`].
    pub cmp: AlertCmp,
    /// The bound.
    pub value: f64,
    /// Number of consecutive scrapes the condition must hold before
    /// the rule fires (default 1). Resolution is immediate.
    pub for_scrapes: u32,
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        match &self.expr {
            AlertExpr::Threshold(s) => write!(f, "{s}")?,
            AlertExpr::Rate(s) => write!(f, "rate {s}")?,
            AlertExpr::Burn {
                series,
                budget,
                per_s,
            } => write!(f, "burn {series} budget {budget} per {per_s}")?,
        }
        write!(f, " {} {}", self.cmp, self.value)?;
        if self.for_scrapes > 1 {
            write!(f, " for {}", self.for_scrapes)?;
        }
        Ok(())
    }
}

/// Error from [`parse_rules`]: what was wrong, and in which rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertParseError {
    /// What went wrong.
    pub message: String,
    /// The offending rule text.
    pub rule: String,
}

impl fmt::Display for AlertParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in alert rule `{}`", self.message, self.rule)
    }
}

impl std::error::Error for AlertParseError {}

/// The default rule set used by `--alerts default`: queue backlog,
/// degraded jobs, and burn rates over the retry, blackout, and
/// deadline-miss budgets.
pub fn default_rules() -> &'static str {
    "queue-backlog: ninja_fleet_queue_depth > 8\n\
     degraded-jobs: ninja_degraded_jobs > 0\n\
     retry-burn: burn ninja_retries_total budget 1 per 600 > 1\n\
     blackout-burn: burn ninja_phase_duration_seconds_sum budget 60 per 3600 > 1\n\
     deadline-burn: burn ninja_fleet_deadline_misses_total budget 1 per 3600 > 1"
}

/// Parses a rule set. Rules are separated by newlines or `;`; blank
/// rules and `#` comment lines are skipped. Each rule is
///
/// ```text
/// NAME: SERIES CMP VALUE [for N]
/// NAME: rate SERIES CMP VALUE [for N]
/// NAME: burn SERIES budget B per S CMP VALUE [for N]
/// ```
///
/// where `SERIES` is `metric` or `metric{k="v",...}` (no spaces inside
/// the braces), `CMP` is `>` or `<`, and `for N` requires the
/// condition to hold for `N` consecutive scrapes before firing.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, AlertParseError> {
    let mut rules = Vec::new();
    for raw in text.split(['\n', ';']) {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        rules.push(parse_rule(line)?);
    }
    Ok(rules)
}

fn rule_err(line: &str, message: impl Into<String>) -> AlertParseError {
    AlertParseError {
        message: message.into(),
        rule: line.to_string(),
    }
}

fn parse_rule(line: &str) -> Result<AlertRule, AlertParseError> {
    let mut tokens = line.split_whitespace().peekable();
    let first = tokens.next().ok_or_else(|| rule_err(line, "empty rule"))?;
    let name = first
        .strip_suffix(':')
        .ok_or_else(|| rule_err(line, "expected `NAME:` as the first token"))?;
    if name.is_empty() {
        return Err(rule_err(line, "empty rule name"));
    }
    let head = tokens
        .next()
        .ok_or_else(|| rule_err(line, "missing expression"))?;
    let expr = match head {
        "rate" => {
            let series = tokens
                .next()
                .ok_or_else(|| rule_err(line, "missing series after `rate`"))?;
            AlertExpr::Rate(parse_series(line, series)?)
        }
        "burn" => {
            let series = tokens
                .next()
                .ok_or_else(|| rule_err(line, "missing series after `burn`"))?;
            let series = parse_series(line, series)?;
            expect_word(line, &mut tokens, "budget")?;
            let budget = parse_number(line, tokens.next(), "budget")?;
            expect_word(line, &mut tokens, "per")?;
            let per_s = parse_number(line, tokens.next(), "window")?;
            if budget <= 0.0 || per_s <= 0.0 {
                return Err(rule_err(line, "budget and window must be positive"));
            }
            AlertExpr::Burn {
                series,
                budget,
                per_s,
            }
        }
        series => AlertExpr::Threshold(parse_series(line, series)?),
    };
    let cmp = match tokens.next() {
        Some(">") => AlertCmp::Gt,
        Some("<") => AlertCmp::Lt,
        other => {
            return Err(rule_err(
                line,
                format!("expected `>` or `<`, got {other:?}"),
            ))
        }
    };
    let value = parse_number(line, tokens.next(), "bound")?;
    let for_scrapes = match tokens.next() {
        None => 1,
        Some("for") => {
            let n = parse_number(line, tokens.next(), "`for` count")?;
            if n < 1.0 || n.fract() != 0.0 {
                return Err(rule_err(line, "`for` count must be a positive integer"));
            }
            n as u32
        }
        Some(other) => return Err(rule_err(line, format!("unexpected token `{other}`"))),
    };
    if tokens.next().is_some() {
        return Err(rule_err(line, "trailing tokens"));
    }
    Ok(AlertRule {
        name: name.to_string(),
        expr,
        cmp,
        value,
        for_scrapes,
    })
}

fn expect_word<'a>(
    line: &str,
    tokens: &mut impl Iterator<Item = &'a str>,
    word: &str,
) -> Result<(), AlertParseError> {
    match tokens.next() {
        Some(t) if t == word => Ok(()),
        other => Err(rule_err(line, format!("expected `{word}`, got {other:?}"))),
    }
}

fn parse_number(line: &str, token: Option<&str>, what: &str) -> Result<f64, AlertParseError> {
    let t = token.ok_or_else(|| rule_err(line, format!("missing {what}")))?;
    t.parse::<f64>()
        .map_err(|_| rule_err(line, format!("bad {what} `{t}`")))
}

fn parse_series(line: &str, text: &str) -> Result<SeriesRef, AlertParseError> {
    match text.split_once('{') {
        None => Ok(SeriesRef {
            name: text.to_string(),
            labels: None,
        }),
        Some((name, rest)) => {
            let inner = rest
                .strip_suffix('}')
                .ok_or_else(|| rule_err(line, "unterminated label set"))?;
            let mut labels: LabelSet = Vec::new();
            for pair in inner.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| rule_err(line, format!("bad label pair `{pair}`")))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| {
                        rule_err(line, format!("label value must be quoted: `{pair}`"))
                    })?;
                labels.push((k.to_string(), v.to_string()));
            }
            labels.sort();
            Ok(SeriesRef {
                name: name.to_string(),
                labels: Some(labels),
            })
        }
    }
}

/// One fired alert, possibly resolved later: the incident log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertIncident {
    /// The rule that fired.
    pub rule: String,
    /// Virtual time of the firing scrape.
    pub fired_at: SimTime,
    /// Virtual time of the resolving scrape; `None` while active (or
    /// if the run ended with the alert still firing).
    pub resolved_at: Option<SimTime>,
}

impl WriteJson for AlertIncident {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("rule", &self.rule)?;
        w.field("fired_at", &self.fired_at)?;
        w.field("resolved_at", &self.resolved_at)?;
        w.end_object()
    }
}

/// A fire or resolve transition, reported back to the scraper so it
/// can emit trace instants and the fired-total counter.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// The rule that transitioned.
    pub rule: String,
    /// `true` = fired, `false` = resolved.
    pub fired: bool,
    /// Human-readable description (rule text plus observed value).
    pub detail: String,
}

#[derive(Debug, Clone)]
struct RuleState {
    consecutive: u32,
    active: Option<usize>,
}

/// Evaluates a rule set against consecutive scrape snapshots.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    state: Vec<RuleState>,
    incidents: Vec<AlertIncident>,
}

impl AlertEngine {
    /// An engine over the given rules.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let state = rules
            .iter()
            .map(|_| RuleState {
                consecutive: 0,
                active: None,
            })
            .collect();
        AlertEngine {
            rules,
            state,
            incidents: Vec::new(),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Number of rules currently firing.
    pub fn active(&self) -> usize {
        self.state.iter().filter(|s| s.active.is_some()).count()
    }

    /// Whether no rule is part-way through its `for` count: each is
    /// either firing or not holding. Scraped again on the same values,
    /// a settled engine emits no transition.
    pub fn settled(&self) -> bool {
        self.state
            .iter()
            .all(|s| s.active.is_some() || s.consecutive == 0)
    }

    /// The incident log, in firing order.
    pub fn incidents(&self) -> &[AlertIncident] {
        &self.incidents
    }

    /// Evaluates every rule at scrape instant `at` against values
    /// supplied by `read(rule_index, series, previous)`: the series'
    /// value at this scrape, or (`previous`) at the scrape at `prev_at`.
    /// This is how the recorder evaluates straight from its columns.
    pub fn evaluate_with(
        &mut self,
        at: SimTime,
        prev_at: Option<SimTime>,
        mut read: impl FnMut(usize, &SeriesRef, bool) -> f64,
    ) -> Vec<AlertEvent> {
        let mut events = Vec::new();
        for (i, (rule, st)) in self.rules.iter().zip(self.state.iter_mut()).enumerate() {
            let s = rule.expr.series();
            // Per-second increase since the previous scrape; `None` on
            // the first scrape or a zero-length interval.
            let mut rate = || {
                let dt = at.since(prev_at?).as_secs_f64();
                (dt > 0.0).then(|| (read(i, s, false) - read(i, s, true)) / dt)
            };
            let observed = match &rule.expr {
                AlertExpr::Threshold(_) => Some(read(i, s, false)),
                AlertExpr::Rate(_) => rate(),
                AlertExpr::Burn { budget, per_s, .. } => rate().map(|r| r / (budget / per_s)),
            };
            let holds = observed.is_some_and(|v| match rule.cmp {
                AlertCmp::Gt => v > rule.value,
                AlertCmp::Lt => v < rule.value,
            });
            if holds {
                st.consecutive = st.consecutive.saturating_add(1);
            } else {
                st.consecutive = 0;
            }
            if holds && st.active.is_none() && st.consecutive >= rule.for_scrapes {
                st.active = Some(self.incidents.len());
                self.incidents.push(AlertIncident {
                    rule: rule.name.clone(),
                    fired_at: at,
                    resolved_at: None,
                });
                events.push(AlertEvent {
                    rule: rule.name.clone(),
                    fired: true,
                    detail: format!("{rule} (observed {})", observed.unwrap_or(f64::NAN)),
                });
            } else if !holds {
                if let Some(idx) = st.active.take() {
                    self.incidents[idx].resolved_at = Some(at);
                    events.push(AlertEvent {
                        rule: rule.name.clone(),
                        fired: false,
                        detail: format!("{rule} (observed {})", observed.unwrap_or(f64::NAN)),
                    });
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::JsonToken;
    use crate::time::SimDuration;
    use crate::timeseries::SeriesPoint;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// The value `s` references in one scrape snapshot.
    fn read(s: &SeriesRef, points: &[SeriesPoint]) -> f64 {
        points
            .iter()
            .filter(|p| s.matches(&p.name, &p.labels))
            .map(|p| p.value)
            .sum()
    }

    /// Evaluates every rule of `e` at scrape instant `at`. `prev` is
    /// the previous scrape (time + snapshot) if any; `cur` is the
    /// current snapshot.
    fn evaluate(
        e: &mut AlertEngine,
        at: SimTime,
        prev: Option<(SimTime, &[SeriesPoint])>,
        cur: &[SeriesPoint],
    ) -> Vec<AlertEvent> {
        e.evaluate_with(at, prev.map(|(t, _)| t), |_, s, previous| match prev {
            Some((_, points)) if previous => read(s, points),
            _ => read(s, cur),
        })
    }

    fn pt(name: &str, value: f64) -> SeriesPoint {
        SeriesPoint {
            name: name.to_string(),
            labels: Vec::new(),
            value,
        }
    }

    fn pt_labeled(name: &str, labels: &[(&str, &str)], value: f64) -> SeriesPoint {
        let mut ls: LabelSet = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ls.sort();
        SeriesPoint {
            name: name.to_string(),
            labels: ls,
            value,
        }
    }

    #[test]
    fn grammar_round_trips() {
        let text = "a: ninja_fleet_queue_depth > 8\n\
                    b: rate ninja_migrations_total > 0.5 for 2\n\
                    c: burn ninja_phase_duration_seconds_sum budget 60 per 3600 > 1;\
                    d: x{phase=\"detach\",vm=\"j0v0\"} < 2";
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].name, "a");
        assert_eq!(rules[1].for_scrapes, 2);
        assert!(matches!(rules[2].expr, AlertExpr::Burn { .. }));
        let d = &rules[3];
        assert_eq!(d.cmp, AlertCmp::Lt);
        match &d.expr {
            AlertExpr::Threshold(s) => {
                let labels = s.labels.as_ref().unwrap();
                assert_eq!(labels.len(), 2);
                assert_eq!(labels[0], ("phase".to_string(), "detach".to_string()));
            }
            other => panic!("wrong expr: {other:?}"),
        }
        // Every rule Display round-trips through the parser.
        for r in &rules {
            let reparsed = parse_rules(&r.to_string()).unwrap();
            assert_eq!(&reparsed[0], r, "{r}");
        }
    }

    #[test]
    fn default_rules_parse() {
        let rules = parse_rules(default_rules()).unwrap();
        assert_eq!(rules.len(), 5);
        assert!(rules.iter().any(|r| r.name == "blackout-burn"));
    }

    #[test]
    fn grammar_rejects_malformed_rules() {
        for bad in [
            "no-colon x > 1",
            "a: x >= 1",
            "a: x > banana",
            "a: burn x budget 0 per 60 > 1",
            "a: x > 1 for 0",
            "a: x > 1 trailing",
            "a: x{phase=detach} > 1",
            "a: x{unterminated > 1",
        ] {
            assert!(parse_rules(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn threshold_fires_and_resolves() {
        let mut e = AlertEngine::new(parse_rules("q: depth > 2").unwrap());
        let ev = evaluate(&mut e, t(0), None, &[pt("depth", 1.0)]);
        assert!(ev.is_empty());
        let ev = evaluate(&mut e, t(30), None, &[pt("depth", 5.0)]);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].fired);
        assert_eq!(e.active(), 1);
        // Still above: no new event, same incident.
        assert!(evaluate(&mut e, t(60), None, &[pt("depth", 9.0)]).is_empty());
        let ev = evaluate(&mut e, t(90), None, &[pt("depth", 0.0)]);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].fired);
        assert_eq!(e.active(), 0);
        assert_eq!(e.incidents().len(), 1);
        assert_eq!(e.incidents()[0].fired_at, t(30));
        assert_eq!(e.incidents()[0].resolved_at, Some(t(90)));
    }

    #[test]
    fn labelless_ref_sums_all_series_and_missing_reads_zero() {
        let r = SeriesRef {
            name: "x".to_string(),
            labels: None,
        };
        let points = [
            pt_labeled("x", &[("phase", "a")], 1.0),
            pt_labeled("x", &[("phase", "b")], 2.0),
            pt("y", 10.0),
        ];
        assert_eq!(read(&r, &points), 3.0);
        let missing = SeriesRef {
            name: "zzz".to_string(),
            labels: None,
        };
        assert_eq!(read(&missing, &points), 0.0);
    }

    #[test]
    fn rate_needs_two_scrapes_and_burn_normalizes() {
        let rules = parse_rules(
            "r: rate total > 0.5\n\
             b: burn total budget 60 per 3600 > 1",
        )
        .unwrap();
        let mut e = AlertEngine::new(rules);
        // First scrape: rate/burn undefined, nothing fires.
        assert!(evaluate(&mut e, t(0), None, &[pt("total", 100.0)]).is_empty());
        // 30 s later +60 => rate 2/s; burn = 2 / (60/3600) = 120.
        let prev = [pt("total", 100.0)];
        let ev = evaluate(&mut e, t(30), Some((t(0), &prev)), &[pt("total", 160.0)]);
        assert_eq!(ev.len(), 2, "{ev:?}");
        assert!(ev.iter().all(|e| e.fired));
        // Flat: both resolve.
        let prev = [pt("total", 160.0)];
        let ev = evaluate(&mut e, t(60), Some((t(30), &prev)), &[pt("total", 160.0)]);
        assert_eq!(ev.len(), 2);
        assert!(ev.iter().all(|e| !e.fired));
    }

    #[test]
    fn for_clause_requires_consecutive_scrapes() {
        let mut e = AlertEngine::new(parse_rules("q: depth > 0 for 3").unwrap());
        assert!(evaluate(&mut e, t(0), None, &[pt("depth", 1.0)]).is_empty());
        assert!(evaluate(&mut e, t(30), None, &[pt("depth", 1.0)]).is_empty());
        let ev = evaluate(&mut e, t(60), None, &[pt("depth", 1.0)]);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].fired);
        // A dip resets the streak.
        let mut e2 = AlertEngine::new(parse_rules("q: depth > 0 for 3").unwrap());
        evaluate(&mut e2, t(0), None, &[pt("depth", 1.0)]);
        evaluate(&mut e2, t(30), None, &[pt("depth", 0.0)]);
        evaluate(&mut e2, t(60), None, &[pt("depth", 1.0)]);
        assert!(evaluate(&mut e2, t(90), None, &[pt("depth", 1.0)]).is_empty());
        assert_eq!(e2.active(), 0);
    }

    #[test]
    fn incident_json_shape() {
        let inc = AlertIncident {
            rule: "q".to_string(),
            fired_at: t(30),
            resolved_at: None,
        };
        let text = inc.to_json_compact();
        let mut r = crate::export::JsonReader::new(&text);
        assert_eq!(r.value(), Ok(JsonToken::Object));
        let mut fields = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            fields.push((key, r.value().unwrap()));
        }
        r.finish().unwrap();
        assert_eq!(fields[0], ("rule".into(), JsonToken::Str("q".into())));
        assert_eq!(fields[1], ("fired_at".into(), JsonToken::UInt(30)));
        assert_eq!(fields[2], ("resolved_at".into(), JsonToken::Null));
    }
}

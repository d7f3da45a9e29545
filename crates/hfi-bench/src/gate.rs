//! One path from a measurement to its verdict, shared by every binary
//! that commits a `BENCH_*.json`.
//!
//! A gated binary declares its [`Rule`]s before it measures.
//! [`Gate::load`] reads the `--check` baseline once and exits 2 if the
//! file, or any key a rule names, is missing: a mispointed or stale
//! baseline must never become a silent pass. After measuring, the
//! binary builds one [`Summary`], adds its in-run invariants as named
//! rows ([`Gate::check`], [`Gate::relative`]) and calls
//! [`Gate::finish`]. That writes the summary to `--out`, reads every
//! gated value back from the written text (so a key is spelled once,
//! and the file and the gate cannot drift apart), prints one markdown
//! table under a `### <figure> gate` heading with a greppable `gate:`
//! trailer, and exits 1 if any row failed.
//!
//! The baseline is read before the output is written, so
//! `--check BENCH_x.json --out BENCH_x.json` gates against the committed
//! numbers, never against the file the run is about to write.

use std::fmt::{Display, Write as _};

use crate::harness::{json_escape, usage_error, Cli, Flag, Harness};

/// The flags every gated binary declares: `--check <baseline.json>`
/// and `--out <path>`.
pub const FLAGS: [Flag; 2] = [Flag::Value("--check"), Flag::Value("--out")];

/// How far a measured value may move from its baseline. NaN on either
/// side fails every rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// A deterministic quantity (simulated cycles, retired ops): any
    /// change is a diff to explain, so it must equal the baseline.
    Exact,
    /// A host-time rate: must not fall below `baseline × (1 − frac)`.
    Floor(f64),
    /// A host-time latency: must not exceed
    /// `baseline × (1 + frac) + slack`.
    Ceiling {
        /// Allowed fractional growth.
        frac: f64,
        /// Absolute slack on top, in the value's unit.
        slack: f64,
    },
}

impl Rule {
    /// Whether `measured` passes against `baseline`.
    fn admits(self, baseline: f64, measured: f64) -> bool {
        match self {
            Rule::Exact => measured == baseline,
            Rule::Floor(frac) => measured >= baseline * (1.0 - frac),
            Rule::Ceiling { frac, slack } => measured <= baseline * (1.0 + frac) + slack,
        }
    }
}

/// A JSON object written field by field, in order: a whole
/// `BENCH_*.json`, or one element of its nested arrays.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    body: String,
}

impl Summary {
    fn field(mut self, key: &str, value: impl Display) -> Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":{value}", json_escape(key));
        self
    }

    /// Adds a string field.
    pub fn text(self, key: &str, value: &str) -> Self {
        self.field(key, format_args!("\"{}\"", json_escape(value)))
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.field(key, value)
    }

    /// Adds a number rounded to `decimals` places.
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.field(key, format_args!("{value:.decimals$}"))
    }

    /// Adds an array of objects.
    pub fn array(self, key: &str, items: impl IntoIterator<Item = Summary>) -> Self {
        let items: Vec<String> = items.into_iter().map(|item| item.render()).collect();
        self.field(key, format_args!("[{}]", items.join(",")))
    }

    /// The object's JSON text.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// The top-level numeric fields of a JSON object, in order. Values in
/// nested arrays and objects are skipped, so a per-cell key never
/// shadows a top-level one; strings, booleans and `null` are skipped.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Fields(Vec<(String, f64)>);

impl Fields {
    /// Parses the top level of a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a message if `json` is not one well-formed object.
    pub(crate) fn parse(json: &str) -> Result<Fields, String> {
        let mut scan = Scan {
            s: json.trim(),
            i: 0,
        };
        let mut fields = Vec::new();
        scan.expect(b'{')?;
        if scan.peek() != Some(b'}') {
            loop {
                let key = scan.string()?;
                scan.expect(b':')?;
                if let Some(value) = scan.value()? {
                    fields.push((key.to_string(), value));
                }
                if scan.peek() != Some(b',') {
                    break;
                }
                scan.i += 1;
            }
        }
        scan.expect(b'}')?;
        if scan.i != scan.s.len() {
            return Err(format!("trailing text at byte {}", scan.i));
        }
        Ok(Fields(fields))
    }

    /// The value of the top-level field `key`.
    pub(crate) fn get(&self, key: &str) -> Option<f64> {
        let key = json_escape(key);
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// A cursor over JSON text.
struct Scan<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Scan<'a> {
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.s.as_bytes();
        while bytes.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        bytes.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() != Some(c) {
            return Err(format!("expected '{}' at byte {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    /// A string literal's text, escapes left as written.
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.as_bytes().get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(&self.s[start..self.i - 1]),
                b'\\' => self.i += 1,
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    /// A value: `Some` for a number, `None` for anything else (skipped).
    fn value(&mut self) -> Result<Option<f64>, String> {
        match self.peek() {
            Some(b'"') => self.string().map(|_| None),
            Some(b'{' | b'[') => {
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        None => return Err("unterminated array or object".into()),
                        Some(b'"') => {
                            self.string()?;
                            continue;
                        }
                        Some(b'{' | b'[') => depth += 1,
                        Some(b'}' | b']') => depth -= 1,
                        Some(_) => {}
                    }
                    self.i += 1;
                    if depth == 0 {
                        return Ok(None);
                    }
                }
            }
            _ => {
                let start = self.i;
                let bytes = self.s.as_bytes();
                while bytes
                    .get(self.i)
                    .is_some_and(|c| !matches!(c, b',' | b'}' | b']') && !c.is_ascii_whitespace())
                {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    "true" | "false" | "null" => Ok(None),
                    token => token
                        .parse()
                        .map(Some)
                        .map_err(|_| format!("bad value {token:?} at byte {start}")),
                }
            }
        }
    }
}

/// One report row: its markdown cells before the verdict, and the verdict.
type Row = (String, bool);

fn rule_row(key: &str, baseline: f64, measured: f64, rule: Rule) -> Row {
    let pct = format!("{:+.1}%", (measured / baseline - 1.0) * 100.0);
    let (delta, bound) = match rule {
        Rule::Exact => (
            format!("{:+}", measured - baseline),
            format!("= {baseline}"),
        ),
        Rule::Floor(frac) => (
            pct,
            format!(">= {:.3} (-{:.0}%)", baseline * (1.0 - frac), frac * 100.0),
        ),
        Rule::Ceiling { frac, slack } => {
            let ceiling = baseline * (1.0 + frac) + slack;
            (
                pct,
                format!("<= {ceiling:.3} (+{:.0}% + {slack})", frac * 100.0),
            )
        }
    };
    let cells = format!("{key} | {baseline} | {measured} | {delta} | {bound}");
    (cells, rule.admits(baseline, measured))
}

/// The gate of one binary: its rules, its baseline and its report.
pub struct Gate {
    figure: &'static str,
    out: String,
    baseline: Option<Fields>,
    rules: Vec<(String, Rule)>,
    relative: Vec<(String, String, Rule)>,
    checks: Vec<Row>,
}

impl Gate {
    /// Reads `--out` (default `out`) and the `--check` baseline from
    /// `cli`. Exits 2 if the baseline cannot be read or parsed, or
    /// lacks a key that `rules` names.
    pub fn load(cli: &Cli, figure: &'static str, out: &str, rules: Vec<(String, Rule)>) -> Self {
        let baseline = cli.value("--check").map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                usage_error(&format!(
                    "cannot read baseline {path}: {e}; run once without --check to record one"
                ))
            });
            let fields = Fields::parse(&text)
                .unwrap_or_else(|e| usage_error(&format!("baseline {path} is malformed: {e}")));
            if let Some((key, _)) = rules.iter().find(|(key, _)| fields.get(key).is_none()) {
                usage_error(&format!(
                    "no \"{key}\" field in baseline {path}; re-record it with this binary first"
                ));
            }
            fields
        });
        Gate {
            figure,
            out: cli.value("--out").unwrap_or(out).to_string(),
            baseline,
            rules,
            relative: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// A summary that opens with the `figure` and `mode` fields.
    pub fn summary(&self, harness: &Harness) -> Summary {
        let mode = if harness.smoke() { "smoke" } else { "full" };
        Summary::default()
            .text("figure", self.figure)
            .text("mode", mode)
    }

    /// Adds an in-run invariant row: `observed` must satisfy `bound`.
    pub fn check(&mut self, name: &str, observed: impl Display, bound: impl Display, ok: bool) {
        self.checks
            .push((format!("{name} | - | {observed} | - | {bound}"), ok));
    }

    /// Adds a row gating the summary's `key` against its `reference`
    /// key from this same run, under `rule`.
    pub fn relative(&mut self, key: String, reference: String, rule: Rule) {
        self.relative.push((key, reference, rule));
    }

    /// Writes `summary` to the output path, reads every gated key back
    /// from the written text, gates it, prints the report, and exits 1
    /// if any row failed.
    ///
    /// # Panics
    ///
    /// Panics if the output file cannot be written.
    pub fn finish(self, summary: Summary) {
        let text = summary.render();
        if let Err(e) = std::fs::write(&self.out, format!("{text}\n")) {
            panic!("cannot write {}: {e}", self.out);
        }
        eprintln!("[{}] wrote {}", self.figure, self.out);
        let measured = Fields::parse(&text).expect("a written summary parses");
        let value = |fields: &Fields, key: &str| fields.get(key).unwrap_or(f64::NAN);
        let mut rows = Vec::new();
        if let Some(baseline) = &self.baseline {
            for (key, rule) in &self.rules {
                rows.push(rule_row(
                    key,
                    value(baseline, key),
                    value(&measured, key),
                    *rule,
                ));
            }
        }
        for (key, reference, rule) in &self.relative {
            let (base, now) = (value(&measured, reference), value(&measured, key));
            rows.push(rule_row(&format!("{key} vs {reference}"), base, now, *rule));
        }
        rows.extend(self.checks);
        println!("\n### {} gate\n", self.figure);
        println!("| key | baseline | this run | delta | bound | verdict |");
        println!("| --- | --- | --- | --- | --- | --- |");
        for (cells, ok) in &rows {
            println!("| {cells} | {} |", if *ok { "ok" } else { "FAIL" });
        }
        let failed: Vec<&String> = rows.iter().filter(|r| !r.1).map(|r| &r.0).collect();
        let (figure, n) = (self.figure, rows.len());
        println!("\ngate: {figure} rows={n} failed={}", failed.len());
        for cells in &failed {
            eprintln!("[{figure}] FAIL: {cells}");
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_exactly_at_the_bound_passes() {
        let floor = 100.0 * (1.0 - 0.2);
        assert!(Rule::Floor(0.2).admits(100.0, floor));
        assert!(!Rule::Floor(0.2).admits(100.0, floor - 1e-9));
        assert!(Rule::Floor(0.5).admits(10.0, 5.0));
        let ceiling = 0.28 * (1.0 + 0.5) + 5.0;
        let rule = Rule::Ceiling {
            frac: 0.5,
            slack: 5.0,
        };
        assert!(rule.admits(0.28, ceiling));
        assert!(!rule.admits(0.28, ceiling + 1e-9));
    }

    #[test]
    fn nan_fails_every_rule() {
        let rules = [
            Rule::Exact,
            Rule::Floor(0.2),
            Rule::Ceiling {
                frac: 0.5,
                slack: 5.0,
            },
        ];
        for rule in rules {
            assert!(!rule.admits(100.0, f64::NAN), "{rule:?} measured NaN");
            assert!(!rule.admits(f64::NAN, 100.0), "{rule:?} baseline NaN");
            assert!(!rule.admits(f64::NAN, f64::NAN), "{rule:?} both NaN");
        }
    }

    #[test]
    fn exact_fails_one_either_side() {
        assert!(Rule::Exact.admits(134.0, 134.0));
        assert!(!Rule::Exact.admits(134.0, 133.0));
        assert!(!Rule::Exact.admits(134.0, 135.0));
        assert!(!Rule::Exact.admits(27_044_413.0, 27_044_414.0));
    }

    #[test]
    fn a_nested_key_does_not_shadow_a_top_level_key() {
        let json = r#"{"figure":"x","cells":[{"p99_ms":1.5,"deep":{"p99_ms":9}}],"p99_ms":2.5}"#;
        let fields = Fields::parse(json).unwrap();
        assert_eq!(fields.get("p99_ms"), Some(2.5));
        assert_eq!(fields.get("deep"), None);
        assert_eq!(fields.get("figure"), None, "strings are not numbers");
        // A key that only appears nested is missing at the top level.
        let nested_only = r#"{"cells":[{"committed":7}]}"#;
        assert_eq!(Fields::parse(nested_only).unwrap().get("committed"), None);
    }

    #[test]
    fn the_writer_round_trips_through_the_loader() {
        let cell = Summary::default()
            .text("kernel", "fib\"2\\x")
            .int("cycles", 7);
        let summary = Summary::default()
            .text("figure", "t")
            .int("total", 27_044_413)
            .num("sim_mips", 8.4514, 3)
            .num("p99_ms", f64::NAN, 3)
            .array("cells", [cell.clone(), cell])
            .text("key \"quoted\"", "]},{")
            .num("after", 0.5, 1);
        let text = summary.render();
        assert!(text.starts_with(r#"{"figure":"t","total":27044413,"sim_mips":8.451,"#));
        let fields = Fields::parse(&text).unwrap();
        assert_eq!(fields.get("total"), Some(27_044_413.0));
        assert_eq!(fields.get("sim_mips"), Some(8.451));
        assert!(fields.get("p99_ms").unwrap().is_nan());
        assert_eq!(fields.get("cycles"), None);
        assert_eq!(fields.get("after"), Some(0.5));
        assert_eq!(fields.0.len(), 4);
    }

    #[test]
    fn malformed_summaries_are_rejected() {
        for bad in [
            "",
            "[]",
            "{",
            r#"{"a":1"#,
            r#"{"a":x}"#,
            r#"{"a":1}x"#,
            r#"{"a":[1}"#,
        ] {
            assert!(Fields::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(Fields::parse(" {} \n").unwrap(), Fields::default());
    }
}

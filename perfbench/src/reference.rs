//! The recorded reference: exact counters of every `fig3-cycle` cell
//! and the measured closed-loop capacity of the `faas-warm` mix.
//! `reference.json` is written by `--record` and read back here; one
//! cell per line keeps the reader a line scanner.

use hfi_wasm::compiler::Isolation;

/// The reference shipped with the benchmark.
pub const REFERENCE_JSON: &str = include_str!("../reference.json");

/// One cell's exact counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Kernel name.
    pub kernel: String,
    /// Isolation scheme (`Debug` name).
    pub scheme: String,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
}

/// Parsed `reference.json`.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// Every `fig3-cycle` cell.
    pub cells: Vec<Cell>,
    /// Closed-loop capacity of the `faas-warm` mix, requests per second.
    pub warm_capacity_rps: f64,
}

/// The raw text after `"key":` on `line`, up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = line[line.find(&needle)? + needle.len()..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

impl Reference {
    /// Parses the line-per-cell format `--record` writes.
    ///
    /// # Errors
    ///
    /// A cell line with a missing or malformed field.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut reference = Reference::default();
        for line in text.lines() {
            if let Some(rps) = field(line, "closed_loop_rps") {
                reference.warm_capacity_rps = rps
                    .parse()
                    .map_err(|_| format!("bad closed_loop_rps in {line:?}"))?;
            }
            if field(line, "kernel").is_none() {
                continue;
            }
            let text = |key| field(line, key).ok_or_else(|| format!("no {key} in {line:?}"));
            let number = |key| {
                text(key)?
                    .parse::<u64>()
                    .map_err(|_| format!("bad {key} in {line:?}"))
            };
            reference.cells.push(Cell {
                kernel: text("kernel")?.to_string(),
                scheme: text("scheme")?.to_string(),
                sim_cycles: number("sim_cycles")?,
                committed: number("committed")?,
                l1d_misses: number("l1d_misses")?,
                mispredicts: number("mispredicts")?,
            });
        }
        Ok(reference)
    }

    /// The cell of `kernel` under `isolation`.
    pub fn cell(&self, kernel: &str, isolation: Isolation) -> Option<&Cell> {
        let scheme = format!("{isolation:?}");
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.scheme == scheme)
    }
}

impl Cell {
    /// The line `--record` writes for this cell.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kernel\": \"{}\", \"scheme\": \"{}\", \"sim_cycles\": {}, \"committed\": {}, \"l1d_misses\": {}, \"mispredicts\": {}}}",
            self.kernel, self.scheme, self.sim_cycles, self.committed, self.l1d_misses, self.mispredicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_round_trip_through_their_line_format() {
        let cell = Cell {
            kernel: "429.mcf-like".into(),
            scheme: "Hfi".into(),
            sim_cycles: 370278,
            committed: 308419,
            l1d_misses: 12,
            mispredicts: 34,
        };
        let text = format!(
            "{{\n  \"closed_loop_rps\": 2500.5,\n  \"cells\": [\n    {}\n  ]\n}}",
            cell.to_json()
        );
        let parsed = Reference::parse(&text).expect("well-formed");
        assert_eq!(parsed.cells, vec![cell]);
        assert_eq!(parsed.warm_capacity_rps, 2500.5);
        assert!(parsed.cell("429.mcf-like", Isolation::Hfi).is_some());
        assert!(parsed.cell("429.mcf-like", Isolation::GuardPages).is_none());
    }

    #[test]
    fn malformed_cells_are_refused() {
        assert!(Reference::parse("{\"kernel\": \"k\", \"scheme\": \"Hfi\"}").is_err());
    }
}

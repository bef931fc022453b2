//! Named metrics with units, sample counts and bases, printed as text
//! lines for people and as one JSON object for the runner script.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `query_p99_us`.
    pub name: String,
    /// The value; `None` when the workload gives it no samples.
    pub value: Option<f64>,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
    /// Samples (or operations) behind the value.
    pub samples: u64,
    /// For a ratio or a per-unit cost: what it is divided by.
    pub base: Option<String>,
}

/// An ordered set of metrics plus free-form facts about the run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    facts: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric; a non-finite value is stored as missing.
    pub fn add(&mut self, name: &str, value: Option<f64>, unit: &'static str, samples: u64) {
        self.add_with_base(name, value, unit, samples, None);
    }

    /// Adds a metric with the base a ratio or per-unit cost divides by.
    pub fn add_with_base(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        samples: u64,
        base: Option<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: value.filter(|v| v.is_finite()),
            unit,
            samples,
            base,
        });
    }

    /// Records a fact (provenance, input property) as a raw JSON value.
    pub fn fact(&mut self, key: &str, json_value: String) {
        self.facts.push((key.to_string(), json_value));
    }

    /// One human-readable line per metric.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let value = m.value.map_or_else(|| "n/a".to_string(), |v| format!("{v:.6}"));
            out.push_str(&format!(
                "  {:<36} {:>18} {:<8} n={}",
                m.name, value, m.unit, m.samples
            ));
            if let Some(base) = &m.base {
                out.push_str(&format!("  base: {base}"));
            }
            out.push('\n');
        }
        out
    }

    /// The report as one JSON object:
    /// `{"metrics": {name: {value, unit, samples, base}}, facts...}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"base\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples,
                    m.base.as_deref().map_or_else(|| "null".to_string(), json_str)
                )
            })
            .collect();
        let mut fields = vec![format!("\"metrics\": {{{}}}", metrics.join(", "))];
        fields.extend(self.facts.iter().map(|(k, v)| format!("{}: {v}", json_str(k))));
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number, or `null` for a missing or non-finite value.
pub fn json_num(v: Option<f64>) -> String {
    match v.filter(|v| v.is_finite()) {
        Some(v) => format!("{v:?}"),
        None => "null".to_string(),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

//! A small, std-only validator for the Prometheus text exposition format —
//! enough to let CI assert that `smg check --metrics text` emits something
//! a real scraper would accept, without pulling in a parser dependency.

use std::collections::BTreeMap;

/// What [`validate_exposition`] found in a valid exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Number of metric families (`# TYPE` lines).
    pub families: usize,
    /// Number of sample lines across all families.
    pub samples: usize,
    /// Sorted family names.
    pub names: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits `name{labels} value` / `name value`; returns (name, labels, value).
fn split_sample(line: &str) -> Result<(&str, BTreeMap<&str, &str>, &str), String> {
    let (head, value) = if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .ok_or_else(|| format!("unterminated label set: {line}"))?;
        if close < open {
            return Err(format!("malformed label set: {line}"));
        }
        let mut labels = BTreeMap::new();
        let body = &line[open + 1..close];
        if !body.is_empty() {
            for pair in body.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label without '=': {pair}"))?;
                if !valid_name(k) {
                    return Err(format!("invalid label name: {k}"));
                }
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value: {pair}"))?;
                labels.insert(k, v);
            }
        }
        ((&line[..open], labels), line[close + 1..].trim())
    } else {
        let (name, value) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("sample without value: {line}"))?;
        ((name, BTreeMap::new()), value.trim())
    };
    Ok((head.0, head.1, value))
}

fn valid_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Validates `text` as Prometheus text exposition. Leading lines before the
/// first `# HELP` are skipped, so the CLI's human-readable output can
/// precede the metrics block. Checks, per family: a `# TYPE` with a known
/// kind, valid metric/label names, parseable sample values, counter names
/// ending in `_total`, and histograms carrying `_bucket` (including
/// `le="+Inf"`), `_sum` and `_count` samples.
///
/// # Errors
///
/// Returns a message describing the first malformed line or incomplete
/// family.
pub fn validate_exposition(text: &str) -> Result<ExpositionSummary, String> {
    let start = text
        .find("# HELP")
        .ok_or_else(|| "no '# HELP' line found".to_string())?;
    let mut kinds: BTreeMap<String, Kind> = BTreeMap::new();
    let mut helped: BTreeMap<String, bool> = BTreeMap::new();
    // Per histogram family: (saw +Inf bucket, saw _sum, saw _count).
    let mut hist_parts: BTreeMap<String, (bool, bool, bool)> = BTreeMap::new();
    let mut samples = 0usize;

    for line in text[start..].lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("HELP without text: {line}"))?;
            if !valid_name(name) {
                return Err(format!("invalid metric name in HELP: {name}"));
            }
            if help.trim().is_empty() {
                return Err(format!("empty HELP text for {name}"));
            }
            helped.insert(name.to_string(), true);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("TYPE without kind: {line}"))?;
            let kind = match kind.trim() {
                "counter" => Kind::Counter,
                "gauge" => Kind::Gauge,
                "histogram" => Kind::Histogram,
                other => return Err(format!("unknown metric type '{other}' for {name}")),
            };
            if kind == Kind::Counter && !name.ends_with("_total") {
                return Err(format!("counter {name} does not end in _total"));
            }
            if kinds.insert(name.to_string(), kind).is_some() {
                return Err(format!("duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            // Free-form comment: legal, ignored.
            continue;
        }
        let (name, labels, value) = split_sample(line)?;
        if !valid_name(name) {
            return Err(format!("invalid metric name: {name}"));
        }
        if !valid_value(value) {
            return Err(format!("unparseable sample value '{value}' in: {line}"));
        }
        // Resolve the family: exact match, or histogram sub-sample.
        let family = kinds.get(name).map(|k| (name.to_string(), *k)).or_else(|| {
            for suffix in ["_bucket", "_sum", "_count"] {
                if let Some(base) = name.strip_suffix(suffix) {
                    if kinds.get(base) == Some(&Kind::Histogram) {
                        return Some((base.to_string(), Kind::Histogram));
                    }
                }
            }
            None
        });
        let (base, kind) = family.ok_or_else(|| format!("sample without TYPE: {name}"))?;
        if kind == Kind::Histogram {
            let parts = hist_parts.entry(base).or_insert((false, false, false));
            if name.ends_with("_bucket") {
                if !labels.contains_key("le") {
                    return Err(format!("histogram bucket without le label: {line}"));
                }
                if labels.get("le") == Some(&"+Inf") {
                    parts.0 = true;
                }
            } else if name.ends_with("_sum") {
                parts.1 = true;
            } else if name.ends_with("_count") {
                parts.2 = true;
            } else {
                return Err(format!("bare sample for histogram family: {name}"));
            }
        }
        samples += 1;
    }

    for (name, kind) in &kinds {
        if !helped.contains_key(name) {
            return Err(format!("family {name} has TYPE but no HELP"));
        }
        if *kind == Kind::Histogram {
            match hist_parts.get(name) {
                Some((true, true, true)) => {}
                _ => {
                    return Err(format!(
                        "histogram {name} is missing +Inf bucket, _sum or _count"
                    ))
                }
            }
        }
    }
    if kinds.is_empty() {
        return Err("no metric families found".to_string());
    }
    Ok(ExpositionSummary {
        families: kinds.len(),
        samples,
        names: kinds.into_keys().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn accepts_registry_output() {
        let reg = crate::Registry::new();
        reg.record(&crate::Event::CounterAdd {
            name: "smg_solve_sweeps_total",
            labels: &[("driver", "interval")],
            value: 3,
        });
        reg.record(&crate::Event::GaugeSet {
            name: "smg_pool_lanes",
            labels: &[],
            value: 2.0,
        });
        reg.record(&crate::Event::Observe {
            name: "smg_pctl_property_seconds",
            labels: &[("solver", "value-iteration")],
            value: 0.004,
        });
        let summary = validate_exposition(&reg.render_text()).unwrap();
        assert_eq!(summary.families, 3);
        assert_eq!(
            summary.names,
            vec![
                "smg_pctl_property_seconds",
                "smg_pool_lanes",
                "smg_solve_sweeps_total"
            ]
        );
        // Counter + gauge + 9 bucket lines + sum + count.
        assert_eq!(summary.samples, 13);
    }

    #[test]
    fn skips_preamble_before_first_help() {
        let text = "P=? [ F \"done\" ] = 0.5\n\n# HELP smg_x_total Things.\n# TYPE smg_x_total counter\nsmg_x_total 1\n";
        let summary = validate_exposition(text).unwrap();
        assert_eq!(summary.families, 1);
        assert_eq!(summary.samples, 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate_exposition("no metrics at all").is_err());
        let no_type = "# HELP smg_x_total T.\nsmg_x_total 1\n";
        assert!(validate_exposition(no_type).unwrap_err().contains("TYPE"));
        let bad_counter = "# HELP smg_x T.\n# TYPE smg_x counter\nsmg_x 1\n";
        assert!(validate_exposition(bad_counter)
            .unwrap_err()
            .contains("_total"));
        let bad_value = "# HELP smg_x_total T.\n# TYPE smg_x_total counter\nsmg_x_total one\n";
        assert!(validate_exposition(bad_value)
            .unwrap_err()
            .contains("unparseable"));
        let incomplete_hist =
            "# HELP smg_h_seconds T.\n# TYPE smg_h_seconds histogram\nsmg_h_seconds_sum 1\n";
        assert!(validate_exposition(incomplete_hist)
            .unwrap_err()
            .contains("missing"));
        let no_help = "# TYPE smg_x_total counter\nsmg_x_total 1\n";
        assert!(validate_exposition(no_help).is_err());
    }
}

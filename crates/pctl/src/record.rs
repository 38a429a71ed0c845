//! The JSON records of a checked property batch: the one renderer behind
//! `smg check --format json`, the daemon's `POST /check` reply and the
//! `batch_check` example.

use crate::{CacheKind, CacheStats, CheckResult, Property};
use smg_obs::json;
use std::fmt::Write as _;

/// Appends the `"cache"` and `"results"` members of a check document to
/// `out`, as the last two members of an object at two-space indentation:
/// the caller writes the opening `{` and its own members before them
/// (each line ending in `,`), and the closing `}` after.
///
/// `cache` gives one `{"hits", "misses"}` entry per [`CacheKind`], in
/// [`CacheKind::ALL`] order. `results` holds one record per property with
/// the keys `property`, `value`, `verdict`, `interval`, `solver` and
/// `time_s`, in that order; `verdict` and `interval` are `null` where the
/// query carries none, and numbers use the [`json::number`] encoding.
///
/// ```
/// use smg_pctl::{write_json_records, CacheStats};
/// let mut out = String::from("{\n");
/// write_json_records(&mut out, CacheStats::default(), &[], &[]);
/// out.push_str("}\n");
/// assert!(out.starts_with("{\n  \"cache\": {\n    \"sat\": {\"hits\": 0, \"misses\": 0},"));
/// assert!(out.ends_with("  },\n  \"results\": [\n  ]\n}\n"));
/// ```
pub fn write_json_records(
    out: &mut String,
    cache: CacheStats,
    properties: &[Property],
    results: &[CheckResult],
) {
    out.push_str("  \"cache\": {\n");
    for (i, &kind) in CacheKind::ALL.iter().enumerate() {
        let ks = cache.kind(kind);
        let _ = writeln!(
            out,
            "    {}: {{\"hits\": {}, \"misses\": {}}}{}",
            json::escape(kind.as_str()),
            ks.hits,
            ks.misses,
            if i + 1 < CacheKind::ALL.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str("  },\n  \"results\": [\n");
    for (i, (property, result)) in properties.iter().zip(results).enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(
            out,
            "      \"property\": {},",
            json::escape(&property.to_string())
        );
        let _ = writeln!(out, "      \"value\": {},", json::number(result.value()));
        let _ = writeln!(
            out,
            "      \"verdict\": {},",
            match result.verdict() {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            }
        );
        match result.interval() {
            Some((lo, hi)) => {
                let _ = writeln!(
                    out,
                    "      \"interval\": [{}, {}],",
                    json::number(lo),
                    json::number(hi)
                );
            }
            None => {
                let _ = writeln!(out, "      \"interval\": null,");
            }
        }
        let _ = writeln!(
            out,
            "      \"solver\": {},",
            json::escape(&result.solver().to_string())
        );
        let _ = writeln!(
            out,
            "      \"time_s\": {}",
            json::number(result.time.as_secs_f64())
        );
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n");
}

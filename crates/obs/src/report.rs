//! Snapshot of recorded telemetry ([`PipelineReport`]): JSON serialization
//! (hand-rolled — the workspace has no serialization dependency), parsing,
//! and a human-readable pretty-print.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Total time spent inside the span across all entries.
    pub total: Duration,
    /// Number of times the span was entered.
    pub count: u64,
}

impl SpanStat {
    /// Total time in seconds.
    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// Aggregated latency distribution of one histogram.
///
/// Buckets are cumulative-style upper bounds in microseconds (the fixed
/// power-of-two ladder of [`crate::HISTOGRAM_BOUNDS_US`]); `u64::MAX` keys
/// the overflow bucket. Only non-empty buckets are stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub total: Duration,
    /// Largest single observation.
    pub max: Duration,
    /// `upper bound in µs → observations ≤ bound` (non-empty buckets only).
    pub buckets: BTreeMap<u64, u64>,
}

impl HistogramStat {
    /// Mean observation (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count.min(u64::from(u32::MAX)) as u32
        }
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`), capped at [`max`](Self::max).
    /// Zero when empty.
    ///
    /// The bucket ladder is powers of two, so a bucket with upper bound `b`
    /// covers `(b/2, b]`. Returning `b` itself (the old behaviour) overstates
    /// the quantile by up to 2×; instead the `⌈q·count⌉`-th observation is
    /// interpolated *log-linearly* within its bucket: consuming a fraction
    /// `f` of the bucket's observations yields `(b/2)·2^f`, i.e. the
    /// log-midpoint at `f = ½` and the exact upper bound only at `f = 1`.
    /// The overflow bucket has no upper bound and reports `max`.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&bound_us, &count) in &self.buckets {
            let below = seen;
            seen += count;
            if seen >= rank {
                if bound_us == u64::MAX {
                    return self.max;
                }
                let hi = bound_us as f64;
                let lo = hi / 2.0;
                let frac = (rank - below) as f64 / count as f64;
                let us = lo * 2f64.powf(frac);
                return Duration::from_nanos((us * 1e3).round() as u64).min(self.max);
            }
        }
        self.max
    }
}

/// Everything a [`crate::Metrics`] handle recorded, in deterministic
/// (sorted) order.
///
/// The JSON schema (stable, documented in the repository README):
///
/// ```json
/// {
///   "spans":      { "<path>": { "total_ns": 1234, "count": 2 } },
///   "counters":   { "<name>": 42 },
///   "gauges":     { "<name>": 0.5 },
///   "histograms": { "<name>": { "count": 2, "total_ns": 99, "max_ns": 64,
///                               "buckets": { "128": 2 } } },
///   "degraded": false
/// }
/// ```
///
/// Histogram bucket keys are upper bounds in µs (`"inf"` = overflow).
/// `degraded` and `histograms` are omitted by older writers; absence reads
/// as `false` / empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineReport {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Timed spans by `/`-separated path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, HistogramStat>,
    /// `true` when any pipeline stage fell back to a degraded mode
    /// (deadline expiry, truncated enumeration, heuristic-only solve).
    pub degraded: bool,
}

impl PipelineReport {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.histograms.is_empty()
            && !self.degraded
    }

    /// Value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Timing of a span path, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// Distribution of a histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.get(name)
    }

    /// Total seconds recorded under a span path (0 when absent).
    pub fn span_secs(&self, path: &str) -> f64 {
        self.span(path).map_or(0.0, SpanStat::secs)
    }

    /// Total duration recorded under a span path (zero when absent).
    pub fn span_duration(&self, path: &str) -> Duration {
        self.span(path).map_or(Duration::ZERO, |s| s.total)
    }

    /// Serializes to the stable JSON schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"spans\": {");
        for (i, (path, stat)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, path);
            out.push_str(&format!(
                ": {{\"total_ns\": {}, \"count\": {}}}",
                stat.total.as_nanos(),
                stat.count
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            out.push_str(&format!(": {}", json::write_f64(*value)));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, stat)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"buckets\": {{",
                stat.count,
                stat.total.as_nanos(),
                stat.max.as_nanos()
            ));
            for (j, (&bound_us, &count)) in stat.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                if bound_us == u64::MAX {
                    out.push_str(&format!("\"inf\": {count}"));
                } else {
                    out.push_str(&format!("\"{bound_us}\": {count}"));
                }
            }
            out.push_str("}}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!("}},\n  \"degraded\": {}\n}}\n", self.degraded));
        out
    }

    /// Parses a report from the JSON produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, json::JsonError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Builds a report from an already-parsed [`json::Value`].
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
        let root = value.as_object("report root")?;
        let mut report = PipelineReport::default();
        if let Some(spans) = root.get("spans") {
            for (path, stat) in spans.as_object("spans")? {
                let stat = stat.as_object("span stat")?;
                let total_ns = stat
                    .get("total_ns")
                    .ok_or_else(|| json::JsonError::missing("total_ns"))?
                    .as_u64("total_ns")?;
                let count = stat
                    .get("count")
                    .ok_or_else(|| json::JsonError::missing("count"))?
                    .as_u64("count")?;
                report.spans.insert(
                    path.clone(),
                    SpanStat {
                        total: Duration::from_nanos(total_ns),
                        count,
                    },
                );
            }
        }
        if let Some(counters) = root.get("counters") {
            for (name, value) in counters.as_object("counters")? {
                report.counters.insert(name.clone(), value.as_u64(name)?);
            }
        }
        if let Some(gauges) = root.get("gauges") {
            for (name, value) in gauges.as_object("gauges")? {
                report.gauges.insert(name.clone(), value.as_f64(name)?);
            }
        }
        if let Some(histograms) = root.get("histograms") {
            for (name, stat) in histograms.as_object("histograms")? {
                let stat_obj = stat.as_object("histogram stat")?;
                let mut parsed = HistogramStat {
                    count: stat_obj
                        .get("count")
                        .ok_or_else(|| json::JsonError::missing("count"))?
                        .as_u64("count")?,
                    total: Duration::from_nanos(
                        stat_obj
                            .get("total_ns")
                            .ok_or_else(|| json::JsonError::missing("total_ns"))?
                            .as_u64("total_ns")?,
                    ),
                    max: Duration::from_nanos(
                        stat_obj
                            .get("max_ns")
                            .ok_or_else(|| json::JsonError::missing("max_ns"))?
                            .as_u64("max_ns")?,
                    ),
                    buckets: BTreeMap::new(),
                };
                if let Some(buckets) = stat_obj.get("buckets") {
                    for (bound, count) in buckets.as_object("buckets")? {
                        let bound_us = if bound == "inf" {
                            u64::MAX
                        } else {
                            bound.parse::<u64>().map_err(|_| {
                                json::JsonError::invalid(format!(
                                    "bad histogram bucket bound `{bound}`"
                                ))
                            })?
                        };
                        parsed.buckets.insert(bound_us, count.as_u64(bound)?);
                    }
                }
                report.histograms.insert(name.clone(), parsed);
            }
        }
        // Pre-`degraded` writers: absence reads as false.
        if let Some(degraded) = root.get("degraded") {
            report.degraded = degraded.as_bool("degraded")?;
        }
        Ok(report)
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "telemetry: (empty)");
        }
        if !self.spans.is_empty() {
            writeln!(f, "spans:")?;
            let width = self.spans.keys().map(String::len).max().unwrap_or(0);
            for (path, stat) in &self.spans {
                writeln!(
                    f,
                    "  {path:<width$}  {:>10.3} ms  x{}",
                    stat.total.as_secs_f64() * 1e3,
                    stat.count
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            let width = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (name, value) in &self.counters {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            let width = self.gauges.keys().map(String::len).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            let width = self.histograms.keys().map(String::len).max().unwrap_or(0);
            for (name, stat) in &self.histograms {
                writeln!(
                    f,
                    "  {name:<width$}  count={} mean={:.3}ms p50={:.3}ms p99={:.3}ms max={:.3}ms",
                    stat.count,
                    stat.mean().as_secs_f64() * 1e3,
                    stat.quantile(0.5).as_secs_f64() * 1e3,
                    stat.quantile(0.99).as_secs_f64() * 1e3,
                    stat.max.as_secs_f64() * 1e3,
                )?;
            }
        }
        if self.degraded {
            writeln!(
                f,
                "degraded: true (some stage fell back to a degraded mode)"
            )?;
        }
        Ok(())
    }
}

/// Minimal JSON reader/writer used by [`PipelineReport`].
pub mod json {
    use std::collections::BTreeMap;
    use std::fmt;

    /// A parsed JSON value (no arrays — the report schema has none).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// An object.
        Object(BTreeMap<String, Value>),
        /// Any number; integers up to 2^53 round-trip exactly.
        Number(f64),
        /// A string.
        String(String),
        /// A boolean.
        Bool(bool),
        /// `null`.
        Null,
    }

    impl Value {
        /// The object's entries, or a type error naming `what`.
        pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Value>, JsonError> {
            match self {
                Value::Object(map) => Ok(map),
                other => Err(JsonError::type_mismatch(what, "object", other)),
            }
        }

        /// The value as a non-negative integer, or a type error.
        pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
                other => Err(JsonError::type_mismatch(what, "unsigned integer", other)),
            }
        }

        /// The value as a float, or a type error.
        pub fn as_f64(&self, what: &str) -> Result<f64, JsonError> {
            match self {
                Value::Number(n) => Ok(*n),
                other => Err(JsonError::type_mismatch(what, "number", other)),
            }
        }

        /// The value as a boolean, or a type error.
        pub fn as_bool(&self, what: &str) -> Result<bool, JsonError> {
            match self {
                Value::Bool(b) => Ok(*b),
                other => Err(JsonError::type_mismatch(what, "bool", other)),
            }
        }
    }

    /// Why a parse failed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonError {
        message: String,
    }

    impl JsonError {
        fn new(message: impl Into<String>) -> Self {
            Self {
                message: message.into(),
            }
        }

        pub(crate) fn missing(field: &str) -> Self {
            Self::new(format!("missing field `{field}`"))
        }

        pub(crate) fn invalid(what: impl Into<String>) -> Self {
            Self::new(what)
        }

        fn type_mismatch(what: &str, expected: &str, got: &Value) -> Self {
            let got = match got {
                Value::Object(_) => "object",
                Value::Number(_) => "number",
                Value::String(_) => "string",
                Value::Bool(_) => "bool",
                Value::Null => "null",
            };
            Self::new(format!("`{what}`: expected {expected}, got {got}"))
        }
    }

    impl fmt::Display for JsonError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "invalid report JSON: {}", self.message)
        }
    }

    impl std::error::Error for JsonError {}

    /// Appends `s` as a quoted, escaped JSON string.
    pub fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Formats a float as JSON (finite values only; NaN/∞ become `null`).
    pub fn write_f64(v: f64) -> String {
        if !v.is_finite() {
            return "null".to_string();
        }
        let mut s = format!("{v}");
        // `{}` on f64 prints integers without a decimal point, which JSON
        // would then read back as an integer type; keep gauges floats.
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing data at byte {}", p.pos)));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&mut self) -> Result<u8, JsonError> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| JsonError::new("unexpected end of input"))
        }

        fn expect(&mut self, b: u8) -> Result<(), JsonError> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(JsonError::new(format!(
                    "expected `{}` at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn value(&mut self) -> Result<Value, JsonError> {
            match self.peek()? {
                b'{' => self.object(),
                b'"' => Ok(Value::String(self.string()?)),
                b't' => self.keyword("true", Value::Bool(true)),
                b'f' => self.keyword("false", Value::Bool(false)),
                b'n' => self.keyword("null", Value::Null),
                b'-' | b'0'..=b'9' => self.number(),
                other => Err(JsonError::new(format!(
                    "unexpected `{}` at byte {}",
                    other as char, self.pos
                ))),
            }
        }

        fn object(&mut self) -> Result<Value, JsonError> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.value()?;
                map.insert(key, value);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    other => {
                        return Err(JsonError::new(format!(
                            "expected `,` or `}}`, got `{}` at byte {}",
                            other as char, self.pos
                        )))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let b = *self
                    .bytes
                    .get(self.pos)
                    .ok_or_else(|| JsonError::new("unterminated string"))?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *self
                            .bytes
                            .get(self.pos)
                            .ok_or_else(|| JsonError::new("unterminated escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                                self.pos += 4;
                                let code = std::str::from_utf8(hex)
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| JsonError::new("bad \\u escape"))?;
                                // Surrogate pairs are not needed for report
                                // keys; reject rather than mis-decode.
                                let c = char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("bad \\u code point"))?;
                                out.push(c);
                            }
                            other => {
                                return Err(JsonError::new(format!(
                                    "bad escape `\\{}`",
                                    other as char
                                )))
                            }
                        }
                    }
                    _ => {
                        // Collect the full UTF-8 sequence starting here.
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| JsonError::new("invalid UTF-8 in string"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, JsonError> {
            let start = self.pos;
            if self.bytes.get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit()
                    || b == b'.'
                    || b == b'e'
                    || b == b'E'
                    || b == b'+'
                    || b == b'-'
                {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| JsonError::new(format!("bad number `{text}`")))
        }

        fn keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(JsonError::new(format!(
                    "expected `{word}` at byte {}",
                    self.pos
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        let mut report = PipelineReport::default();
        report.counters.insert("conflict/pairs".into(), 1234);
        report.counters.insert("mis/nodes".into(), 0);
        report.gauges.insert("density".into(), 0.125);
        report.gauges.insert("whole".into(), 3.0);
        report.spans.insert(
            "ctcr".into(),
            SpanStat {
                total: Duration::from_nanos(1_234_567_891),
                count: 1,
            },
        );
        report.spans.insert(
            "ctcr/mis \"quoted\\path\"".into(),
            SpanStat {
                total: Duration::from_micros(250),
                count: 17,
            },
        );
        report.histograms.insert(
            "serve/latency".into(),
            HistogramStat {
                count: 7,
                total: Duration::from_micros(900),
                max: Duration::from_micros(400),
                buckets: [(64, 2), (128, 4), (512, 1)].into_iter().collect(),
            },
        );
        report
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let report = sample();
        let text = report.to_json();
        let back = PipelineReport::from_json(&text).expect("parse own output");
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_roundtrips() {
        let report = PipelineReport::default();
        assert!(report.is_empty());
        let back = PipelineReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
    }

    #[test]
    fn accessors_read_values() {
        let report = sample();
        assert_eq!(report.counter("conflict/pairs"), Some(1234));
        assert_eq!(report.gauge("density"), Some(0.125));
        assert_eq!(report.span("ctcr").map(|s| s.count), Some(1));
        assert!(report.span_secs("ctcr") > 1.0);
        assert_eq!(report.span_secs("absent"), 0.0);
    }

    #[test]
    fn display_lists_all_sections() {
        let text = sample().to_string();
        assert!(text.contains("spans:"));
        assert!(text.contains("counters:"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("conflict/pairs"));
        assert!(PipelineReport::default().to_string().contains("empty"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PipelineReport::from_json("").is_err());
        assert!(PipelineReport::from_json("{").is_err());
        assert!(PipelineReport::from_json("{} trailing").is_err());
        assert!(PipelineReport::from_json("null").is_err());
        assert!(PipelineReport::from_json(r#"{"spans": 3}"#).is_err());
        assert!(
            PipelineReport::from_json(r#"{"counters": {"x": -1}}"#).is_err(),
            "negative counter must be rejected"
        );
        assert!(PipelineReport::from_json(r#"{"counters": {"x": 1.5}}"#).is_err());
    }

    #[test]
    fn histogram_quantiles_estimate_from_buckets() {
        let stat = HistogramStat {
            count: 10,
            total: Duration::from_micros(1000),
            max: Duration::from_micros(700),
            buckets: [(64, 5), (256, 4), (u64::MAX, 1)].into_iter().collect(),
        };
        // Rank 5 consumes the whole first bucket (frac = 1) → its exact
        // upper bound; likewise rank 9 exhausts the 256 µs bucket.
        assert_eq!(stat.quantile(0.5), Duration::from_micros(64));
        assert_eq!(stat.quantile(0.9), Duration::from_micros(256));
        // The overflow bucket reports the observed max, not infinity.
        assert_eq!(stat.quantile(1.0), Duration::from_micros(700));
        assert_eq!(stat.mean(), Duration::from_micros(100));
        let empty = HistogramStat::default();
        assert_eq!(empty.quantile(0.5), Duration::ZERO);
        assert_eq!(empty.mean(), Duration::ZERO);
    }

    #[test]
    fn quantile_interpolates_within_bucket_instead_of_upper_bound() {
        // Ten observations, all in the (64, 128] µs bucket. The old
        // implementation returned the bucket's upper bound — 128 µs — for
        // *every* quantile, overstating p50 by ~41%. Log-interpolation
        // puts the median at 64·2^(5/10) = 64·√2 ≈ 90.51 µs.
        let stat = HistogramStat {
            count: 10,
            total: Duration::from_micros(1000),
            max: Duration::from_micros(128),
            buckets: [(128, 10)].into_iter().collect(),
        };
        let p50 = stat.quantile(0.5);
        assert!(
            p50 < Duration::from_micros(128),
            "p50 {p50:?} must not report the bucket upper bound"
        );
        assert!(
            p50 > Duration::from_micros(64),
            "p50 stays inside the bucket"
        );
        // 64 · 2^(5/10) µs = 90.50966799… µs → 90 510 ns after rounding.
        assert_eq!(p50, Duration::from_nanos(90_510));
        // Hand-computed: rank ⌈0.2·10⌉ = 2 → frac 0.2 → 64·2^0.2 ≈ 73.52 µs.
        assert_eq!(stat.quantile(0.2), Duration::from_nanos(73_517));
        // Exhausting the bucket still lands exactly on its upper bound.
        assert_eq!(stat.quantile(1.0), Duration::from_micros(128));
    }

    #[test]
    fn quantile_keeps_max_clamp_and_overflow_path() {
        // The observed max (70 µs) sits below the 128 µs bucket bound, so
        // interpolated values above it clamp to max.
        let stat = HistogramStat {
            count: 4,
            total: Duration::from_micros(260),
            max: Duration::from_micros(70),
            buckets: [(128, 4)].into_iter().collect(),
        };
        assert_eq!(stat.quantile(1.0), Duration::from_micros(70));
        // frac = 1/4 → 64·2^0.25 ≈ 76.1 µs > max → clamped.
        assert_eq!(stat.quantile(0.25), Duration::from_micros(70));
        // Overflow-only histograms report max for every quantile.
        let overflow = HistogramStat {
            count: 2,
            total: Duration::from_secs(5),
            max: Duration::from_secs(3),
            buckets: [(u64::MAX, 2)].into_iter().collect(),
        };
        assert_eq!(overflow.quantile(0.5), Duration::from_secs(3));
        assert_eq!(overflow.quantile(1.0), Duration::from_secs(3));
    }

    #[test]
    fn from_value_matches_from_json() {
        let report = sample();
        let value = json::parse(&report.to_json()).expect("parse");
        let back = PipelineReport::from_value(&value).expect("from_value");
        assert_eq!(back, report);
        assert!(PipelineReport::from_value(&json::Value::Null).is_err());
    }

    #[test]
    fn histograms_roundtrip_and_default_to_empty() {
        let report = sample();
        let back = PipelineReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back.histograms, report.histograms);
        assert_eq!(
            back.histogram("serve/latency").map(|h| h.count),
            Some(7),
            "accessor reads the parsed histogram"
        );
        // Overflow bucket key serializes as "inf" and parses back.
        let mut with_inf = PipelineReport::default();
        with_inf.histograms.insert(
            "h".into(),
            HistogramStat {
                count: 1,
                total: Duration::from_secs(2),
                max: Duration::from_secs(2),
                buckets: [(u64::MAX, 1)].into_iter().collect(),
            },
        );
        let text = with_inf.to_json();
        assert!(text.contains("\"inf\": 1"), "{text}");
        assert_eq!(PipelineReport::from_json(&text).expect("parse"), with_inf);
        // Pre-histogram JSON (field absent) reads as empty.
        let legacy = PipelineReport::from_json(r#"{"counters": {"x": 1}}"#).expect("parse");
        assert!(legacy.histograms.is_empty());
        // Garbage bucket bounds are rejected.
        assert!(PipelineReport::from_json(
            r#"{"histograms": {"h": {"count": 1, "total_ns": 1, "max_ns": 1,
                "buckets": {"nope": 1}}}}"#
        )
        .is_err());
    }

    #[test]
    fn degraded_flag_roundtrips_and_defaults_to_false() {
        let mut report = sample();
        report.degraded = true;
        let back = PipelineReport::from_json(&report.to_json()).expect("parse");
        assert!(back.degraded);
        // Pre-`degraded` JSON (field absent) reads as false.
        let legacy = PipelineReport::from_json(r#"{"counters": {"x": 1}}"#).expect("parse");
        assert!(!legacy.degraded);
        // A non-bool value is a type error, not a silent false.
        assert!(PipelineReport::from_json(r#"{"degraded": 1}"#).is_err());
    }

    #[test]
    fn parse_accepts_foreign_whitespace_and_escapes() {
        let text = "\n{\t\"gauges\" : { \"a\\u0041\" : 2.5e-1 } }\n";
        let report = PipelineReport::from_json(text).expect("parse");
        assert_eq!(report.gauge("aA"), Some(0.25));
    }
}

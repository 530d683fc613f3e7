//! Closed-form expectations and the pass/fail ledger.
//!
//! Every workload feeds the program monotonic counters, so each sensor
//! is a [`Line`]: reading `k` has timestamp `ts0 + k·dt` and value
//! `v0 + k`. Any raw range, bucket aggregate or derived metric over a
//! line has a closed-form answer, which is why no reference store is
//! needed: the benchmark computes what the program must return and
//! counts every difference as a failed operation.

/// Tally of checked operations. `failed` feeds the result line's
/// `failed` field and turns the exit status non-zero.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records one checked operation; `describe` only runs on failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, describe());
        }
    }

    /// Records `n` operations that all succeeded (bulk conservation:
    /// readings that arrived).
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failed operations that were already counted as
    /// attempted (or are being counted now via `attempted`).
    pub fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Checks `got == want` for a named counter.
    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        self.check(got == want, || format!("{what}: got {got}, want {want}"));
    }

    /// Conservation of a stream of `want` items of which `got` arrived:
    /// every item is an attempted operation, every missing or surplus
    /// one a failed operation.
    pub fn conserve(&mut self, what: &str, got: u64, want: u64) {
        self.attempted += want;
        if got != want {
            self.fail(
                got.abs_diff(want),
                format!("{what}: got {got}, want {want}"),
            );
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// One sensor's history: readings `first_k..=last_k`, reading `k` at
/// `ts0_ns + k·dt_ns` with value `v0 + k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    pub first_k: u64,
    pub last_k: u64,
    pub ts0_ns: u64,
    pub dt_ns: u64,
    pub v0: i64,
}

/// One expected aggregate bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    pub t_ns: u64,
    pub count: u64,
    pub sum: i64,
    pub min: i64,
    pub max: i64,
}

impl Bucket {
    pub fn avg(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }
}

impl Line {
    pub fn ts(&self, k: u64) -> u64 {
        self.ts0_ns + k * self.dt_ns
    }

    pub fn value(&self, k: u64) -> i64 {
        self.v0 + k as i64
    }

    /// Indices of the readings with `from_ns <= ts <= to_ns`, as an
    /// inclusive range; `None` when the range holds no reading.
    pub fn span(&self, from_ns: u64, to_ns: u64) -> Option<(u64, u64)> {
        if to_ns < self.ts(self.first_k) || from_ns > self.ts(self.last_k) || to_ns < from_ns {
            return None;
        }
        let lo = from_ns
            .saturating_sub(self.ts0_ns)
            .div_ceil(self.dt_ns)
            .max(self.first_k);
        let hi = ((to_ns - self.ts0_ns) / self.dt_ns).min(self.last_k);
        (lo <= hi).then_some((lo, hi))
    }

    /// The non-empty buckets `GET /query` must return for
    /// `[from_ns, to_ns]` at `step_ns`: the range is clamped to the
    /// data extent, widened to whole grid buckets, and every reading in
    /// a covered bucket aggregates into it.
    pub fn buckets(&self, from_ns: u64, to_ns: u64, step_ns: u64) -> Vec<Bucket> {
        let lo = from_ns.max(self.ts(self.first_k));
        let hi = to_ns.min(self.ts(self.last_k));
        if hi < lo {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut b = lo - lo % step_ns;
        let end = hi - hi % step_ns + step_ns;
        while b < end {
            if let Some((a, z)) = self.span(b, b + step_ns - 1) {
                let count = z - a + 1;
                // Sum of v0+a ..= v0+z.
                let sum = self.v0 * count as i64 + ((a + z) * count / 2) as i64;
                out.push(Bucket {
                    t_ns: b,
                    count,
                    sum,
                    min: self.value(a),
                    max: self.value(z),
                });
            }
            b += step_ns;
        }
        out
    }
}

/// A cursor over a JSON text with just the primitives the two response
/// schemas need. Responses are tens of kilobytes and every one is
/// checked on the client thread between requests, so the check walks
/// the bytes once and builds no tree; keys may come in any order and
/// unknown keys are skipped.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    /// A string without escapes (topics and key names have none).
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return std::str::from_utf8(&self.bytes[start..self.pos - 1])
                        .map_err(|e| e.to_string());
                }
                b'\\' => return Err(format!("escaped string at byte {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    /// The text of a scalar (number, `true`, `false`, `null`).
    fn scalar(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| !matches!(b, b',' | b'}' | b']') && !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a scalar at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())
    }

    fn number<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let text = self.scalar()?;
        text.parse()
            .map_err(|_| format!("{text:?} is not the expected number"))
    }

    /// Skips one value of any kind.
    fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => self.string().map(|_| ()),
            Some(b'{') => self.object(|c, _| c.skip_value()),
            Some(b'[') => self.array(|c| c.skip_value()),
            _ => self.scalar().map(|_| ()),
        }
    }

    /// Walks an object, calling `field` positioned at each value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Cursor<'a>, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// Walks an array, calling `item` positioned at each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Cursor<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.expect(b']');
            }
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.pos))
        }
    }
}

/// Checks a `GET /sensors/<topic>?from_s=..&to_s=..` body against the
/// line: exactly the expected rows, in order, each with the right
/// value and timestamp.
pub fn check_rows(body: &str, line: &Line, from_ns: u64, to_ns: u64) -> Result<(), String> {
    let want = line.span(from_ns, to_ns);
    let want_len = want.map_or(0, |(a, z)| z - a + 1);
    let first = want.map_or(0, |(a, _)| a);
    let mut rows = 0u64;
    let mut c = Cursor::new(body);
    c.array(|c| {
        let (mut value, mut ts) = (None::<i64>, None::<u64>);
        c.object(|c, key| {
            match key {
                "value" => value = Some(c.number()?),
                "timestamp" => ts = Some(c.number()?),
                _ => c.skip_value()?,
            }
            Ok(())
        })?;
        let k = first + rows;
        if rows < want_len && (value != Some(line.value(k)) || ts != Some(line.ts(k))) {
            return Err(format!(
                "row {rows}: got ({value:?}, {ts:?}), want ({}, {})",
                line.value(k),
                line.ts(k)
            ));
        }
        rows += 1;
        Ok(())
    })?;
    c.end()?;
    if rows != want_len {
        return Err(format!("{rows} rows, want {want_len}"));
    }
    Ok(())
}

/// Which aggregate the request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Avg,
    Max,
}

impl Agg {
    pub fn as_str(self) -> &'static str {
        match self {
            Agg::Avg => "avg",
            Agg::Max => "max",
        }
    }

    fn of(self, b: &Bucket) -> f64 {
        match self {
            Agg::Avg => b.avg(),
            Agg::Max => b.max as f64,
        }
    }
}

/// One `points` element as served.
#[derive(Debug, Default)]
struct Point {
    t: Option<u64>,
    value: Option<f64>,
    count: Option<u64>,
    sum: Option<i64>,
    min: Option<i64>,
    max: Option<i64>,
}

impl Point {
    fn read(c: &mut Cursor<'_>) -> Result<Point, String> {
        let mut p = Point::default();
        c.object(|c, key| {
            match key {
                "t" => p.t = Some(c.number()?),
                // `null` (an empty bucket's average) stays `None`.
                "value" => p.value = c.scalar()?.parse().ok(),
                "count" => p.count = Some(c.number()?),
                "sum" => p.sum = Some(c.number()?),
                "min" => p.min = Some(c.number()?),
                "max" => p.max = Some(c.number()?),
                _ => c.skip_value()?,
            }
            Ok(())
        })?;
        Ok(p)
    }

    fn matches(&self, agg: Agg, want: &Bucket) -> bool {
        let value = agg.of(want);
        self.t == Some(want.t_ns)
            && self.count == Some(want.count)
            && self.sum == Some(want.sum)
            && self.min == Some(want.min)
            && self.max == Some(want.max)
            && self
                .value
                .is_some_and(|v| (v - value).abs() <= 1e-9 * value.abs().max(1.0))
    }
}

/// Checks a `GET /query` body: one series per expected sensor, in
/// topic order, each with exactly the expected buckets. Returns
/// `(buckets_from_tier, buckets_from_raw)` summed over the series'
/// reported plans.
pub fn check_agg(
    body: &str,
    agg: Agg,
    step_ns: u64,
    from_ns: u64,
    to_ns: u64,
    sensors: &[(String, Line)],
) -> Result<(u64, u64), String> {
    let (mut tier, mut raw) = (0u64, 0u64);
    let (mut step_seen, mut series_seen) = (None::<u64>, 0usize);
    let mut c = Cursor::new(body);
    c.object(|c, key| match key {
        "step_ns" => {
            step_seen = Some(c.number()?);
            Ok(())
        }
        "series" => c.array(|c| {
            let Some((topic, line)) = sensors.get(series_seen) else {
                return Err(format!("more than {} series", sensors.len()));
            };
            series_seen += 1;
            let want = line.buckets(from_ns, to_ns, step_ns);
            let (mut named, mut points) = (false, None::<usize>);
            c.object(|c, key| match key {
                "sensor" => {
                    let got = c.string()?;
                    named = got == topic;
                    if named {
                        Ok(())
                    } else {
                        Err(format!("series for {got}, want {topic}"))
                    }
                }
                "plan" => c.object(|c, key| {
                    match key {
                        "buckets_from_tier" => tier += c.number::<u64>()?,
                        "buckets_from_raw" => raw += c.number::<u64>()?,
                        _ => c.skip_value()?,
                    }
                    Ok(())
                }),
                "points" => {
                    let mut n = 0usize;
                    c.array(|c| {
                        let point = Point::read(c)?;
                        match want.get(n) {
                            Some(w) if point.matches(agg, w) => {}
                            w => {
                                return Err(format!("{topic}: point {n} is {point:?}, want {w:?}"))
                            }
                        }
                        n += 1;
                        Ok(())
                    })?;
                    points = Some(n);
                    Ok(())
                }
                _ => c.skip_value(),
            })?;
            if !named || points != Some(want.len()) {
                return Err(format!(
                    "{topic}: {points:?} points (named: {named}), want {}",
                    want.len()
                ));
            }
            Ok(())
        }),
        _ => c.skip_value(),
    })?;
    c.end()?;
    if step_seen != Some(step_ns) {
        return Err(format!("step_ns {step_seen:?}, want {step_ns}"));
    }
    if series_seen != sensors.len() {
        return Err(format!("{series_seen} series, want {}", sensors.len()));
    }
    Ok((tier, raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn line() -> Line {
        Line {
            first_k: 1,
            last_k: 100,
            ts0_ns: 0,
            dt_ns: S,
            v0: 1000,
        }
    }

    #[test]
    fn span_and_buckets_are_closed_form() {
        let l = line();
        assert_eq!(l.span(5 * S, 7 * S), Some((5, 7)));
        assert_eq!(l.span(0, S / 2), None);
        assert_eq!(l.span(99 * S + 1, 500 * S), Some((100, 100)));
        assert_eq!(l.span(101 * S, 500 * S), None);
        // 10 s buckets over [15 s, 31 s] widen to [10 s, 40 s).
        let b = l.buckets(15 * S, 31 * S, 10 * S);
        assert_eq!(b.len(), 3);
        assert_eq!(
            (b[0].t_ns, b[0].count, b[0].min, b[0].max),
            (10 * S, 10, 1010, 1019)
        );
        assert_eq!(b[0].sum, (1010..=1019).sum::<i64>());
        assert_eq!(b[0].avg(), 1014.5);
        // The first bucket of the line misses k = 0.
        let first = l.buckets(0, 5 * S, 10 * S);
        assert_eq!((first[0].t_ns, first[0].count, first[0].min), (0, 9, 1001));
    }

    #[test]
    fn right_answers_pass_and_wrong_ones_are_caught() {
        let l = line();
        let good =
            r#"[{"value":1005,"timestamp":5000000000},{"value":1006,"timestamp":6000000000}]"#;
        assert_eq!(check_rows(good, &l, 5 * S, 6 * S), Ok(()));
        // A deliberately wrong expectation — the same body against a
        // shifted line, a shifted range and a damaged value — must fail.
        let shifted = Line { v0: 1001, ..l };
        assert!(check_rows(good, &shifted, 5 * S, 6 * S).is_err());
        assert!(check_rows(good, &l, 5 * S, 7 * S).is_err());
        let bad = good.replace("1006", "1007");
        assert!(check_rows(&bad, &l, 5 * S, 6 * S).is_err());

        let body = format!(
            r#"{{"agg":"avg","step_ns":{step},"series":[{{"sensor":"/a","plan":{{"tier_ns":{step},"buckets_from_tier":1,"buckets_from_raw":0}},"points":[{{"t":{t},"value":1014.5,"count":10,"sum":10145,"min":1010,"max":1019}}]}}]}}"#,
            step = 10 * S,
            t = 10 * S
        );
        let sensors = vec![("/a".to_string(), l)];
        assert_eq!(
            check_agg(&body, Agg::Avg, 10 * S, 10 * S, 19 * S, &sensors),
            Ok((1, 0))
        );
        assert!(check_agg(&body, Agg::Max, 10 * S, 10 * S, 19 * S, &sensors).is_err());
        assert!(check_agg(&body, Agg::Avg, 10 * S, 10 * S, 29 * S, &sensors).is_err());
        let wrong_sum = body.replace("10145", "10146");
        assert!(check_agg(&wrong_sum, Agg::Avg, 10 * S, 10 * S, 19 * S, &sensors).is_err());

        let mut ledger = Ledger::default();
        ledger.conserve("readings", 90, 100);
        ledger.expect_eq("drops", 0, 0);
        assert_eq!((ledger.attempted, ledger.failed), (101, 10));
        assert!(!ledger.ok());
    }
}

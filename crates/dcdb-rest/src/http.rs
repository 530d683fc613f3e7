//! Minimal HTTP/1.1 request/response types and codec.
//!
//! Every DCDB component exposes a RESTful control API (paper §IV-A);
//! Wintermute routes its management and on-demand-operator requests
//! through it (paper §V-A). Requests are one-shot (no keep-alive
//! pipelining, no chunked encoding; bodies carry `Content-Length`).
//! One request decoder: the incremental [`RequestParser`] used by the
//! non-blocking event-loop server, which accepts bytes as they arrive.

use dcdb_common::error::DcdbError;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve a resource.
    Get,
    /// Invoke an action / submit data.
    Put,
    /// Invoke an action / submit data (treated like PUT by DCDB).
    Post,
    /// Remove a resource.
    Delete,
}

impl Method {
    /// Parses the method token.
    pub fn parse(s: &str) -> Result<Method, DcdbError> {
        match s {
            "GET" => Ok(Method::Get),
            "PUT" => Ok(Method::Put),
            "POST" => Ok(Method::Post),
            "DELETE" => Ok(Method::Delete),
            other => Err(DcdbError::Parse(format!("unsupported method {other:?}"))),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Put => "PUT",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        })
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Decoded path, without the query string.
    pub path: String,
    /// Query parameters in order-independent form.
    pub query: BTreeMap<String, String>,
    /// Header map, keys lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Request body.
    pub body: Vec<u8>,
    /// Path parameters filled in by the router (`:name` segments).
    pub params: BTreeMap<String, String>,
}

impl Request {
    /// Builds a request programmatically (used by in-process dispatch
    /// and tests).
    pub fn new(method: Method, path_and_query: &str) -> Request {
        let (path, query) = split_query(path_and_query);
        Request {
            method,
            path,
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
            params: BTreeMap::new(),
        }
    }

    /// A query parameter by name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// A router path parameter by name.
    pub fn path_param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }
}

/// Largest accepted request body.
const MAX_BODY: usize = 16 * 1024 * 1024;
/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 64 * 1024;

fn content_length(headers: &BTreeMap<String, String>) -> Result<usize, DcdbError> {
    let len: usize = headers
        .get("content-length")
        .map(|v| {
            v.parse()
                .map_err(|_| DcdbError::Parse("bad Content-Length".into()))
        })
        .transpose()?
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err(DcdbError::Parse(format!("body too large: {len} bytes")));
    }
    Ok(len)
}

/// Incremental HTTP/1.1 request parser for the non-blocking server.
///
/// Feed whatever bytes the socket yields; the parser buffers partial
/// heads and bodies across calls and returns the request once it is
/// complete. One parser decodes one request (connections are one-shot).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Where the next search for the end of the head starts: bytes
    /// before it hold no terminator, even with more bytes to come.
    scanned: usize,
    head: Option<ParsedHead>,
}

#[derive(Debug)]
struct ParsedHead {
    method: Method,
    path: String,
    query: BTreeMap<String, String>,
    headers: BTreeMap<String, String>,
    body_start: usize,
    content_len: usize,
}

impl RequestParser {
    /// A parser with no buffered bytes.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends `bytes` and returns the request if it is now complete,
    /// `Ok(None)` if more bytes are needed, or an error for malformed
    /// or oversized input (the connection should then be closed after
    /// a `400`).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, DcdbError> {
        self.buf.extend_from_slice(bytes);
        if self.head.is_none() {
            let Some((head_len, body_start)) = find_head_end(&self.buf, self.scanned) else {
                if self.buf.len() > MAX_HEAD {
                    return Err(DcdbError::Parse("request head too large".into()));
                }
                // A terminator is at most 3 bytes: the last 2 may
                // still begin one that the next feed completes.
                self.scanned = self.buf.len().saturating_sub(2);
                return Ok(None);
            };
            self.head = Some(parse_head(&self.buf[..head_len], body_start)?);
        }
        let (body_start, content_len) = {
            let head = self.head.as_ref().expect("head parsed above");
            (head.body_start, head.content_len)
        };
        if self.buf.len() < body_start + content_len {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        let body = self.buf[body_start..body_start + content_len].to_vec();
        self.buf.clear();
        self.scanned = 0;
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            headers: head.headers,
            body,
            params: BTreeMap::new(),
        }))
    }
}

/// Finds the blank line ending the head, looking from `from` on;
/// returns `(head_len, body_start)`. Accepts both `\r\n\r\n` and bare
/// `\n\n`.
fn find_head_end(buf: &[u8], from: usize) -> Option<(usize, usize)> {
    for i in from..buf.len() {
        if buf[i] != b'\n' {
            continue;
        }
        if buf.get(i + 1) == Some(&b'\n') {
            return Some((i + 1, i + 2));
        }
        if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
            return Some((i + 1, i + 3));
        }
    }
    None
}

fn parse_head(head: &[u8], body_start: usize) -> Result<ParsedHead, DcdbError> {
    let text =
        std::str::from_utf8(head).map_err(|_| DcdbError::Parse("non-UTF-8 request head".into()))?;
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = Method::parse(parts.next().unwrap_or(""))?;
    let target = parts
        .next()
        .ok_or_else(|| DcdbError::Parse("missing request target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(DcdbError::Parse(format!("bad HTTP version {version:?}")));
    }
    let (path, query) = split_query(target);
    let mut headers = BTreeMap::new();
    for hline in lines {
        if hline.is_empty() {
            continue;
        }
        if let Some((k, v)) = hline.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        } else {
            return Err(DcdbError::Parse(format!("malformed header {hline:?}")));
        }
    }
    let content_len = content_length(&headers)?;
    Ok(ParsedHead {
        method,
        path,
        query,
        headers,
        body_start,
        content_len,
    })
}

fn split_query(target: &str) -> (String, BTreeMap<String, String>) {
    match target.split_once('?') {
        None => (percent_decode(target), BTreeMap::new()),
        Some((p, q)) => {
            let mut map = BTreeMap::new();
            for pair in q.split('&').filter(|s| !s.is_empty()) {
                match pair.split_once('=') {
                    Some((k, v)) => map.insert(percent_decode(k), percent_decode(v)),
                    None => map.insert(percent_decode(pair), String::new()),
                };
            }
            (percent_decode(p), map)
        }
    }
}

/// Decodes `%XX` escapes and `+`-as-space.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let digit = |k| bytes.get(i + k).and_then(|&b| char::from(b).to_digit(16));
                match digit(1).zip(digit(2)) {
                    Some((hi, lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// HTTP status codes used by the DCDB control APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200
    Ok,
    /// 201
    Created,
    /// 204
    NoContent,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 409
    Conflict,
    /// 500
    InternalError,
    /// 503
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Created => 201,
            Status::NoContent => 204,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::Conflict => 409,
            Status::InternalError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Created => "Created",
            Status::NoContent => "No Content",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::Conflict => "Conflict",
            Status::InternalError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line code.
    pub status: Status,
    /// Content type header value.
    pub content_type: String,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a plain-text body.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: Status::Ok,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// 200 with a JSON body.
    pub fn json(body: impl Into<String>) -> Response {
        Response {
            status: Status::Ok,
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
        }
    }

    /// An error response with a plain-text message.
    pub fn error(status: Status, msg: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: msg.into().into_bytes(),
        }
    }

    /// 204 without a body.
    pub fn no_content() -> Response {
        Response {
            status: Status::NoContent,
            content_type: String::new(),
            body: Vec::new(),
        }
    }

    /// Changes the status keeping body/type.
    pub fn with_status(mut self, status: Status) -> Response {
        self.status = status;
        self
    }

    /// Body interpreted as UTF-8 (tests / in-process callers).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// Serializes the response to a stream.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        )?;
        if !self.content_type.is_empty() {
            write!(w, "Content-Type: {}\r\n", self.content_type)?;
        }
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        write!(w, "Connection: close\r\n\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_decoding() {
        let req = Request::new(Method::Get, "/q?a=1&b=two%20words&flag&c=x+y");
        assert_eq!(req.query_param("a"), Some("1"));
        assert_eq!(req.query_param("b"), Some("two words"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("c"), Some("x y"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("%2Fpath"), "/path");
        assert_eq!(percent_decode("a%"), "a%");
        assert_eq!(percent_decode("a%2"), "a%2");
        assert_eq!(percent_decode("a%zz"), "a%zz");
    }

    #[test]
    fn percent_decode_takes_only_two_hex_digits() {
        // A sign is not a hex digit: `%+f` stays literal, and its `+`
        // then decodes as the space a query string means by it.
        assert_eq!(percent_decode("%+f"), "% f");
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("%2b%2B"), "++");
    }

    #[test]
    fn incremental_parse_byte_at_a_time() {
        let raw = b"PUT /echo?x=1 HTTP/1.1\r\nHost: dcdb\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new();
        for &b in &raw[..raw.len() - 1] {
            assert!(parser.feed(&[b]).unwrap().is_none());
        }
        let req = parser.feed(&raw[raw.len() - 1..]).unwrap().unwrap();
        assert_eq!(req.method, Method::Put);
        assert_eq!(req.path, "/echo");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.headers.get("host").map(String::as_str), Some("dcdb"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn incremental_parse_single_feed_and_bare_lf() {
        let mut parser = RequestParser::new();
        let req = parser
            .feed(b"GET /ping HTTP/1.1\n\n")
            .unwrap()
            .expect("complete");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/ping");
        assert!(req.body.is_empty());
        let req = RequestParser::new()
            .feed(b"GET /analytics/plugins?detail=full HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .expect("complete");
        assert_eq!(req.path, "/analytics/plugins");
        assert_eq!(req.query_param("detail"), Some("full"));
    }

    #[test]
    fn every_split_of_the_terminator_parses_the_same() {
        let raws: [&[u8]; 2] = [
            b"PUT /e?x=1 HTTP/1.1\r\nHost: dcdb\r\nContent-Length: 2\r\n\r\nhi",
            b"PUT /e?x=1 HTTP/1.1\nHost: dcdb\nContent-Length: 2\n\nhi",
        ];
        for raw in raws {
            let whole = RequestParser::new().feed(raw).unwrap().expect("complete");
            let whole = format!("{whole:?}");
            // Three feeds at every pair of cut points, so the resumed
            // search starts inside the terminator as well as before it.
            for i in 0..=raw.len() {
                for j in i..=raw.len() {
                    let mut parser = RequestParser::new();
                    let parts = [&raw[..i], &raw[i..j], &raw[j..]];
                    let got: Vec<Request> = parts
                        .iter()
                        .filter_map(|part| parser.feed(part).unwrap())
                        .collect();
                    assert_eq!(got.len(), 1, "cuts {i}, {j}");
                    assert_eq!(format!("{:?}", got[0]), whole, "cuts {i}, {j}");
                }
            }
        }
    }

    #[test]
    fn trickled_large_heads_parse_in_linear_time() {
        // Each feed used to rescan the whole buffer: quadratic in the
        // head, ~11 s of CPU for these 16 heads in release.
        let head = format!(
            "GET /t HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(60 * 1024)
        );
        let (last, rest) = head.as_bytes().split_last().unwrap();
        let start = std::time::Instant::now();
        for _ in 0..16 {
            let mut parser = RequestParser::new();
            for &b in rest {
                assert!(parser.feed(&[b]).unwrap().is_none());
            }
            let req = parser.feed(&[*last]).unwrap().expect("complete");
            assert_eq!(req.headers["x-pad"].len(), 60 * 1024);
            let spent = start.elapsed();
            assert!(spent.as_secs_f64() < 1.0, "still quadratic: {spent:?}");
        }
    }

    #[test]
    fn incremental_parse_split_across_head_and_body() {
        let mut parser = RequestParser::new();
        assert!(parser
            .feed(b"POST /x HTTP/1.1\r\nContent-Length: 6\r\n\r\nab")
            .unwrap()
            .is_none());
        let req = parser.feed(b"cdef").unwrap().expect("complete");
        assert_eq!(req.body, b"abcdef");
    }

    #[test]
    fn incremental_parse_rejects_malformed_input() {
        assert!(RequestParser::new()
            .feed(b"NOPE / HTTP/1.1\r\n\r\n")
            .is_err());
        assert!(RequestParser::new().feed(b"GET /\r\n\r\n").is_err());
        assert!(RequestParser::new()
            .feed(b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n")
            .is_err());
        assert!(RequestParser::new()
            .feed(b"GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n")
            .is_err());
        assert!(RequestParser::new()
            .feed(b"GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
            .is_err());
    }

    #[test]
    fn incremental_parse_waits_for_a_truncated_body() {
        // Fewer body bytes than Content-Length promised is not a
        // request yet; the server's idle reaper closes the connection.
        let mut parser = RequestParser::new();
        assert!(parser
            .feed(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap()
            .is_none());
    }

    #[test]
    fn incremental_parse_bounds_head_size() {
        let mut parser = RequestParser::new();
        let chunk = vec![b'a'; 16 * 1024];
        assert!(parser.feed(b"GET / HTTP/1.1\r\nX: ").unwrap().is_none());
        let mut result = Ok(None);
        for _ in 0..8 {
            result = parser.feed(&chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(result.is_err(), "oversized head must be rejected");
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json("{\"ok\":true}");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Type: application/json"));
        assert!(s.contains("Content-Length: 11"));
        assert!(s.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn response_constructors() {
        assert_eq!(Response::no_content().status.code(), 204);
        assert_eq!(Response::error(Status::NotFound, "x").status.code(), 404);
        assert_eq!(
            Response::text("t")
                .with_status(Status::Created)
                .status
                .code(),
            201
        );
        assert_eq!(Status::InternalError.reason(), "Internal Server Error");
    }
}

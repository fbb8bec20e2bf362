//! The `oct-serve` wire protocol: one request line in, one response line
//! out, UTF-8, newline-terminated.
//!
//! The protocol is deliberately primitive — the robustness machinery around
//! it (admission control, shedding, deadlines, hot swap) is the point of the
//! daemon, and a line protocol keeps clients trivial (`nc` works). Shapes:
//!
//! ```text
//! →  PING
//! ←  OK PONG epoch=3
//! →  CATEGORIZE 17,42,108
//! ←  OK COVER epoch=3 cat=12 sim=0.8333 precision=0.7143 covered=1 degraded=0 label=running shoes
//! →  NAVIGATE 12
//! ←  OK NAV cat=12 children=13,14,19
//! →  STATS
//! ←  OK STATS epoch=3 categories=412 max_depth=6 items=50000 degraded=0
//! →  SWAP /path/to/new.oct
//! ←  OK SWAPPED epoch=4 categories=433
//! ←  OVERLOADED queue=64            (typed shed — request was never admitted)
//! ←  ERR unavailable: draining      (shutdown in progress — try another replica)
//! ←  ERR internal: worker panicked in serve request: …  (contained bug)
//! ```
//!
//! Router fan-out adds two optional markers. Sub-queries carry a shard
//! scope tag (`SCORE 17,42 shard=1`) so backends can attribute per-shard
//! load; and a cover merged from a fleet with dead shards carries
//! `partial=1 missing=<shard-ids>` (before the label trailer), the typed
//! PARTIAL degradation instead of an error.
//!
//! `SCORE` is `CATEGORIZE` minus the label lookup — same cover computation,
//! for clients that only want the number. Unknown or malformed lines get
//! `ERR bad-request: ...`; the connection stays open (one bad line must not
//! kill a pipelined client).

use oct_core::CatId;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; returns the current tree epoch.
    Ping,
    /// Best cover of the item set, with the winning category's label.
    Categorize {
        /// The queried item ids.
        items: Vec<u32>,
        /// Shard scope tag (router fan-out): marks this request as the
        /// sub-query for one shard's slice of a larger item set. Backends
        /// treat it as routing metadata — the cover computation is
        /// unchanged — and count scoped traffic under one `serve/scoped`
        /// counter, whatever the id (a client picks it, so a per-id
        /// counter would let it grow the metric set without bound).
        shard: Option<u32>,
    },
    /// Best cover of the item set, label-free.
    Score {
        /// The queried item ids.
        items: Vec<u32>,
        /// Shard scope tag (see [`Request::Categorize::shard`]).
        shard: Option<u32>,
    },
    /// Children of one category (tree browsing).
    Navigate {
        /// The category to expand.
        cat: CatId,
    },
    /// Calibrated top-k categories for an item set (`NAVIGATE <k>
    /// items=1,2,3 [ef=N]`): ANN candidate generation over centroid
    /// embeddings, exact-reranked, under the usual budget contract.
    NavigateTopK {
        /// How many categories to return (strictly positive).
        k: usize,
        /// The queried item ids.
        items: Vec<u32>,
        /// ANN beam width override; `None` uses the server default.
        ef: Option<usize>,
    },
    /// Tree + server statistics.
    Stats,
    /// Load a new tree from a path and atomically publish it.
    Swap {
        /// Path to a persisted `.oct` tree.
        path: String,
    },
    /// Begin graceful drain: stop accepting, finish in-flight, exit.
    Shutdown,
}

/// Machine-readable error class on `ERR` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line could not be parsed or referenced a bad id/path.
    BadRequest,
    /// The server is refusing work: draining, or (from the router) no
    /// replica could answer.
    Unavailable,
    /// A contained panic in the computation, or a routed swap that
    /// published on only some replicas.
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::BadRequest => "bad-request",
            Self::Unavailable => "unavailable",
            Self::Internal => "internal",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        match name {
            "bad-request" => Some(Self::BadRequest),
            "unavailable" => Some(Self::Unavailable),
            "internal" => Some(Self::Internal),
            _ => None,
        }
    }
}

/// A response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness ack with the serving tree's epoch.
    Pong {
        /// Current tree epoch.
        epoch: u64,
    },
    /// Best cover of a queried item set.
    Cover {
        /// Epoch of the tree that answered (pins swap consistency).
        epoch: u64,
        /// Winning category, if any scored above zero.
        cat: Option<CatId>,
        /// Its similarity.
        similarity: f64,
        /// Its precision.
        precision: f64,
        /// Whether the cover passes the variant's threshold.
        covered: bool,
        /// Whether the budget expired mid-scan (pessimistic partial answer).
        degraded: bool,
        /// Shards that contributed no answer (router fan-out only; empty
        /// for single-server responses and full-fleet merges). A non-empty
        /// list is the typed `PARTIAL` marker: the cover is a
        /// deterministic merge of the surviving shards.
        missing: Vec<u32>,
        /// The winning category's label (CATEGORIZE only; last field, may
        /// contain spaces).
        label: Option<String>,
    },
    /// A category's children.
    Nav {
        /// The expanded category.
        cat: CatId,
        /// Its live children, ascending.
        children: Vec<CatId>,
    },
    /// Calibrated top-k categories for an item set, best first.
    TopK {
        /// Epoch of the tree that answered.
        epoch: u64,
        /// The requested k.
        k: usize,
        /// The effective ANN beam width used.
        ef: usize,
        /// Whether the budget expired mid-rerank (pessimistic partial
        /// ranking).
        degraded: bool,
        /// Ranked `(category, similarity)` pairs, at most `k`.
        results: Vec<(CatId, f64)>,
    },
    /// Tree-level statistics.
    Stats {
        /// Current tree epoch.
        epoch: u64,
        /// Live category count.
        categories: usize,
        /// Maximum depth.
        max_depth: usize,
        /// Item slots in the point index.
        items: u32,
        /// Sticky degraded flag: has any answer since startup been
        /// degraded (budget expiry, partial fan-out, shed replica)?
        /// Health probes use this plus `epoch` to spot limping or
        /// stale-epoch replicas after a SWAP.
        degraded: bool,
    },
    /// A hot swap was published.
    Swapped {
        /// The new epoch.
        epoch: u64,
        /// Live categories in the new tree.
        categories: usize,
    },
    /// Drain acknowledged; the server stops accepting and exits when
    /// in-flight work completes.
    Draining,
    /// Typed load-shed: the request was rejected *before* admission
    /// because the queue or concurrency limit was hit. Clients should back
    /// off and retry; nothing was partially executed.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// Typed failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Request {
    /// Parses one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Self, String> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "PING" => Ok(Self::Ping),
            "CATEGORIZE" => {
                let (items, shard) = parse_scoped_items(rest)?;
                Ok(Self::Categorize { items, shard })
            }
            "SCORE" => {
                let (items, shard) = parse_scoped_items(rest)?;
                Ok(Self::Score { items, shard })
            }
            "NAVIGATE" => {
                if rest.contains("items=") {
                    parse_navigate_topk(rest)
                } else {
                    rest.parse::<CatId>()
                        .map(|cat| Self::Navigate { cat })
                        .map_err(|_| format!("bad category id {rest:?}"))
                }
            }
            "STATS" => Ok(Self::Stats),
            "SWAP" => {
                if rest.is_empty() {
                    Err("SWAP needs a tree path".to_owned())
                } else {
                    Ok(Self::Swap {
                        path: rest.to_owned(),
                    })
                }
            }
            "SHUTDOWN" => Ok(Self::Shutdown),
            "" => Err("empty request".to_owned()),
            other => Err(format!("unknown verb {other:?}")),
        }
    }

    /// Encodes the request as its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Self::Ping => "PING".to_owned(),
            Self::Categorize { items, shard } => {
                format!("CATEGORIZE {}{}", join_items(items), shard_suffix(*shard))
            }
            Self::Score { items, shard } => {
                format!("SCORE {}{}", join_items(items), shard_suffix(*shard))
            }
            Self::Navigate { cat } => format!("NAVIGATE {cat}"),
            Self::NavigateTopK { k, items, ef } => {
                let ef = ef.map_or_else(String::new, |ef| format!(" ef={ef}"));
                format!("NAVIGATE {k} items={}{ef}", join_items(items))
            }
            Self::Stats => "STATS".to_owned(),
            Self::Swap { path } => format!("SWAP {path}"),
            Self::Shutdown => "SHUTDOWN".to_owned(),
        }
    }
}

/// Parses the top-k form of NAVIGATE: `<k> items=1,2,3 [ef=N]`. Item lists
/// here are compact (no spaces) so tokens split on whitespace.
fn parse_navigate_topk(text: &str) -> Result<Request, String> {
    let mut k: Option<usize> = None;
    let mut items: Option<Vec<u32>> = None;
    let mut ef: Option<usize> = None;
    for (i, token) in text.split_whitespace().enumerate() {
        if let Some(value) = token.strip_prefix("items=") {
            items = Some(parse_items(value)?);
        } else if let Some(value) = token.strip_prefix("ef=") {
            let parsed = value
                .parse::<usize>()
                .map_err(|_| format!("bad ef {value:?}"))?;
            if parsed == 0 {
                return Err("ef must be positive".to_owned());
            }
            ef = Some(parsed);
        } else if i == 0 {
            k = Some(
                token
                    .parse::<usize>()
                    .map_err(|_| format!("bad top-k count {token:?}"))?,
            );
        } else {
            return Err(format!("unexpected token {token:?}"));
        }
    }
    let k = k.ok_or("NAVIGATE top-k needs a leading count")?;
    if k == 0 {
        return Err("top-k count must be positive".to_owned());
    }
    let items = items.ok_or("NAVIGATE top-k needs items=")?;
    Ok(Request::NavigateTopK { k, items, ef })
}

/// Parses an item list with an optional trailing `shard=N` scope tag
/// (`CATEGORIZE 1,2,3 shard=2`, or `SCORE shard=2` for an empty slice).
fn parse_scoped_items(text: &str) -> Result<(Vec<u32>, Option<u32>), String> {
    let parse_shard = |value: &str| {
        value
            .parse::<u32>()
            .map_err(|_| format!("bad shard id {value:?}"))
    };
    if let Some((head, tail)) = text.rsplit_once(char::is_whitespace) {
        if let Some(value) = tail.strip_prefix("shard=") {
            return Ok((parse_items(head.trim())?, Some(parse_shard(value)?)));
        }
    } else if let Some(value) = text.strip_prefix("shard=") {
        return Ok((Vec::new(), Some(parse_shard(value)?)));
    }
    Ok((parse_items(text)?, None))
}

fn shard_suffix(shard: Option<u32>) -> String {
    match shard {
        Some(s) => format!(" shard={s}"),
        None => String::new(),
    }
}

fn parse_items(text: &str) -> Result<Vec<u32>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<u32>()
                .map_err(|_| format!("bad item id {part:?}"))
        })
        .collect()
}

fn join_items(items: &[u32]) -> String {
    items
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

impl Response {
    /// Encodes the response as its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Self::Pong { epoch } => format!("OK PONG epoch={epoch}"),
            Self::Cover {
                epoch,
                cat,
                similarity,
                precision,
                covered,
                degraded,
                missing,
                label,
            } => {
                let mut line = format!(
                    "OK COVER epoch={epoch} cat={} sim={similarity:.6} precision={precision:.6} \
                     covered={} degraded={}",
                    cat.map_or_else(|| "none".to_owned(), |c| c.to_string()),
                    u8::from(*covered),
                    u8::from(*degraded),
                );
                // The PARTIAL marker precedes the free-form label trailer so
                // it always parses as a real field (first match wins) and is
                // never forged by label text.
                if !missing.is_empty() {
                    line.push_str(&format!(" partial=1 missing={}", join_items(missing)));
                }
                if let Some(label) = label {
                    line.push_str(" label=");
                    line.push_str(label);
                }
                line
            }
            Self::Nav { cat, children } => {
                format!("OK NAV cat={cat} children={}", join_items(children))
            }
            Self::TopK {
                epoch,
                k,
                ef,
                degraded,
                results,
            } => {
                let ranked = results
                    .iter()
                    .map(|(cat, score)| format!("{cat}:{score:.6}"))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "OK TOPK epoch={epoch} k={k} ef={ef} degraded={} results={ranked}",
                    u8::from(*degraded)
                )
            }
            Self::Stats {
                epoch,
                categories,
                max_depth,
                items,
                degraded,
            } => format!(
                "OK STATS epoch={epoch} categories={categories} max_depth={max_depth} \
                 items={items} degraded={}",
                u8::from(*degraded)
            ),
            Self::Swapped { epoch, categories } => {
                format!("OK SWAPPED epoch={epoch} categories={categories}")
            }
            Self::Draining => "OK DRAINING".to_owned(),
            Self::Overloaded { queue_depth } => format!("OVERLOADED queue={queue_depth}"),
            Self::Error { code, message } => {
                format!("ERR {}: {}", code.name(), message.replace('\n', " "))
            }
        }
    }

    /// Parses one response line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Self, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(rest) = line.strip_prefix("OVERLOADED") {
            let fields = Fields::parse(rest);
            return Ok(Self::Overloaded {
                queue_depth: fields.u64("queue")? as usize,
            });
        }
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, message) = rest
                .split_once(": ")
                .ok_or_else(|| format!("malformed ERR line {line:?}"))?;
            return Ok(Self::Error {
                code: ErrorCode::parse(code).ok_or_else(|| format!("unknown code {code:?}"))?,
                message: message.to_owned(),
            });
        }
        let rest = line
            .strip_prefix("OK ")
            .ok_or_else(|| format!("malformed response {line:?}"))?;
        let (kind, rest) = match rest.split_once(' ') {
            Some((k, r)) => (k, r),
            None => (rest, ""),
        };
        let fields = Fields::parse(rest);
        match kind {
            "PONG" => Ok(Self::Pong {
                epoch: fields.u64("epoch")?,
            }),
            "COVER" => {
                // Optional fields (partial/missing) are resolved against
                // the head of the line — everything before the free-form
                // label trailer — so label text can never forge them.
                let head = Fields::parse(match rest.find("label=") {
                    Some(at) => &rest[..at],
                    None => rest,
                });
                Ok(Self::Cover {
                    epoch: fields.u64("epoch")?,
                    cat: match fields.str("cat")? {
                        "none" => None,
                        id => Some(
                            id.parse::<CatId>()
                                .map_err(|_| format!("bad cat id {id:?}"))?,
                        ),
                    },
                    similarity: fields.f64("sim")?,
                    precision: fields.f64("precision")?,
                    covered: fields.u64("covered")? != 0,
                    degraded: fields.u64("degraded")? != 0,
                    missing: if head.u64("partial").unwrap_or(0) != 0 {
                        parse_items(head.str("missing").unwrap_or(""))?
                    } else {
                        Vec::new()
                    },
                    label: fields.trailing("label="),
                })
            }
            "NAV" => Ok(Self::Nav {
                cat: fields.u64("cat")? as CatId,
                children: parse_items(fields.str("children").unwrap_or(""))?,
            }),
            "TOPK" => {
                let raw = fields.str("results").unwrap_or("");
                let mut results = Vec::new();
                if !raw.is_empty() {
                    for part in raw.split(',') {
                        let (cat, score) = part
                            .split_once(':')
                            .ok_or_else(|| format!("bad ranked entry {part:?}"))?;
                        results.push((
                            cat.parse::<CatId>()
                                .map_err(|_| format!("bad cat id {cat:?}"))?,
                            score
                                .parse::<f64>()
                                .map_err(|_| format!("bad score {score:?}"))?,
                        ));
                    }
                }
                Ok(Self::TopK {
                    epoch: fields.u64("epoch")?,
                    k: fields.u64("k")? as usize,
                    ef: fields.u64("ef")? as usize,
                    degraded: fields.u64("degraded")? != 0,
                    results,
                })
            }
            "STATS" => Ok(Self::Stats {
                epoch: fields.u64("epoch")?,
                categories: fields.u64("categories")? as usize,
                max_depth: fields.u64("max_depth")? as usize,
                items: fields.u64("items")? as u32,
                // Lenient default keeps old single-server responses valid.
                degraded: fields.u64("degraded").unwrap_or(0) != 0,
            }),
            "SWAPPED" => Ok(Self::Swapped {
                epoch: fields.u64("epoch")?,
                categories: fields.u64("categories")? as usize,
            }),
            "DRAINING" => Ok(Self::Draining),
            other => Err(format!("unknown response kind {other:?}")),
        }
    }

    /// `true` for the typed shed response.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, Self::Overloaded { .. })
    }

    /// `true` for a cover carrying the `PARTIAL` marker (some shards
    /// contributed no answer).
    pub fn is_partial(&self) -> bool {
        matches!(self, Self::Cover { missing, .. } if !missing.is_empty())
    }
}

/// `key=value` field access over a response tail. The raw tail is kept so
/// a trailing free-form field (`label=...`, which may contain spaces) can
/// be extracted verbatim.
struct Fields<'a> {
    raw: &'a str,
}

impl<'a> Fields<'a> {
    fn parse(raw: &'a str) -> Self {
        Self { raw: raw.trim() }
    }

    /// The value of `key` (first match, space-delimited).
    fn str(&self, key: &str) -> Result<&'a str, String> {
        for part in self.raw.split_whitespace() {
            if let Some(value) = part.strip_prefix(key) {
                if let Some(value) = value.strip_prefix('=') {
                    return Ok(value);
                }
            }
        }
        Err(format!("missing field {key:?}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("bad integer field {key:?}"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("bad float field {key:?}"))
    }

    /// Everything after `marker` to end of line (for free-form trailers).
    fn trailing(&self, marker: &str) -> Option<String> {
        self.raw
            .find(marker)
            .map(|at| self.raw[at + marker.len()..].to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Ping,
            Request::Categorize {
                items: vec![17, 42, 108],
                shard: None,
            },
            Request::Categorize {
                items: vec![17, 42],
                shard: Some(2),
            },
            Request::Score {
                items: vec![5],
                shard: None,
            },
            Request::Score {
                items: Vec::new(),
                shard: Some(0),
            },
            Request::Navigate { cat: 12 },
            Request::NavigateTopK {
                k: 5,
                items: vec![1, 2, 3],
                ef: None,
            },
            Request::NavigateTopK {
                k: 3,
                items: Vec::new(),
                ef: Some(128),
            },
            Request::Stats,
            Request::Swap {
                path: "/tmp/new tree.oct".to_owned(),
            },
            Request::Shutdown,
        ];
        for req in cases {
            let line = req.encode();
            assert_eq!(Request::parse(&line).expect("roundtrip"), req, "{line}");
        }
    }

    #[test]
    fn request_parse_is_lenient_about_case_and_spacing() {
        assert_eq!(Request::parse("ping").expect("ok"), Request::Ping);
        assert_eq!(
            Request::parse("  categorize 1, 2 ,3  ").expect("ok"),
            Request::Categorize {
                items: vec![1, 2, 3],
                shard: None,
            }
        );
        assert_eq!(
            Request::parse("CATEGORIZE").expect("empty set allowed"),
            Request::Categorize {
                items: Vec::new(),
                shard: None,
            }
        );
    }

    #[test]
    fn shard_scope_tag_roundtrips() {
        assert_eq!(
            Request::parse("SCORE 4,9 shard=1").expect("ok"),
            Request::Score {
                items: vec![4, 9],
                shard: Some(1),
            }
        );
        assert_eq!(
            Request::parse("CATEGORIZE shard=3").expect("scoped empty slice"),
            Request::Categorize {
                items: Vec::new(),
                shard: Some(3),
            }
        );
        assert!(Request::parse("SCORE 1 shard=banana").is_err());
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("FROBNICATE 1").is_err());
        assert!(Request::parse("CATEGORIZE 1,x").is_err());
        assert!(Request::parse("NAVIGATE banana").is_err());
        assert!(Request::parse("SWAP").is_err());
    }

    #[test]
    fn navigate_topk_parses_and_rejects_degenerate_forms() {
        assert_eq!(
            Request::parse("NAVIGATE 5 items=1,2,3").expect("ok"),
            Request::NavigateTopK {
                k: 5,
                items: vec![1, 2, 3],
                ef: None
            }
        );
        assert_eq!(
            Request::parse("NAVIGATE 2 items=9 ef=64").expect("ok"),
            Request::NavigateTopK {
                k: 2,
                items: vec![9],
                ef: Some(64)
            }
        );
        // The single-category browse form is untouched.
        assert_eq!(
            Request::parse("NAVIGATE 12").expect("ok"),
            Request::Navigate { cat: 12 }
        );
        assert!(Request::parse("NAVIGATE 0 items=1").is_err(), "k = 0");
        assert!(Request::parse("NAVIGATE items=1").is_err(), "missing k");
        assert!(Request::parse("NAVIGATE x items=1").is_err());
        assert!(Request::parse("NAVIGATE 3 items=1,y").is_err());
        assert!(Request::parse("NAVIGATE 3 items=1 ef=0").is_err());
        assert!(Request::parse("NAVIGATE 3 items=1 bogus").is_err());
    }

    #[test]
    fn responses_roundtrip() {
        let cases = [
            Response::Pong { epoch: 3 },
            Response::Cover {
                epoch: 7,
                cat: Some(12),
                similarity: 0.833333,
                precision: 0.714286,
                covered: true,
                degraded: false,
                missing: Vec::new(),
                label: Some("running shoes".to_owned()),
            },
            Response::Cover {
                epoch: 7,
                cat: None,
                similarity: 0.0,
                precision: 1.0,
                covered: false,
                degraded: true,
                missing: Vec::new(),
                label: None,
            },
            Response::Cover {
                epoch: 9,
                cat: Some(4),
                similarity: 0.5,
                precision: 0.25,
                covered: false,
                degraded: true,
                missing: vec![0, 2],
                label: Some("partial merge".to_owned()),
            },
            Response::Nav {
                cat: 12,
                children: vec![13, 14, 19],
            },
            Response::Nav {
                cat: 9,
                children: Vec::new(),
            },
            Response::TopK {
                epoch: 4,
                k: 3,
                ef: 64,
                degraded: false,
                results: vec![(12, 0.833333), (7, 0.5), (2, 0.25)],
            },
            Response::TopK {
                epoch: 4,
                k: 5,
                ef: 128,
                degraded: true,
                results: Vec::new(),
            },
            Response::Stats {
                epoch: 3,
                categories: 412,
                max_depth: 6,
                items: 50_000,
                degraded: false,
            },
            Response::Stats {
                epoch: 5,
                categories: 1,
                max_depth: 1,
                items: 10,
                degraded: true,
            },
            Response::Swapped {
                epoch: 4,
                categories: 433,
            },
            Response::Draining,
            Response::Overloaded { queue_depth: 64 },
            Response::Error {
                code: ErrorCode::Unavailable,
                message: "draining".to_owned(),
            },
        ];
        for resp in cases {
            let line = resp.encode();
            assert_eq!(Response::parse(&line).expect("roundtrip"), resp, "{line}");
        }
    }

    #[test]
    fn overloaded_is_typed_and_detectable() {
        let resp = Response::parse("OVERLOADED queue=17").expect("parses");
        assert!(resp.is_overloaded());
        assert_eq!(resp, Response::Overloaded { queue_depth: 17 });
        assert!(!Response::Pong { epoch: 0 }.is_overloaded());
    }

    #[test]
    fn partial_marker_roundtrips_and_is_detectable() {
        let resp = Response::Cover {
            epoch: 2,
            cat: Some(7),
            similarity: 0.5,
            precision: 0.5,
            covered: true,
            degraded: true,
            missing: vec![1, 3],
            label: None,
        };
        assert!(resp.is_partial());
        let line = resp.encode();
        assert!(line.contains("partial=1 missing=1,3"), "{line}");
        assert_eq!(Response::parse(&line).expect("roundtrip"), resp);
        // A full answer carries no marker at all.
        let full = Response::Cover {
            epoch: 2,
            cat: Some(7),
            similarity: 0.5,
            precision: 0.5,
            covered: true,
            degraded: false,
            missing: Vec::new(),
            label: None,
        };
        assert!(!full.is_partial());
        assert!(!full.encode().contains("partial"), "no marker when full");
    }

    #[test]
    fn label_text_cannot_forge_a_partial_marker() {
        let resp = Response::Cover {
            epoch: 1,
            cat: Some(2),
            similarity: 1.0,
            precision: 1.0,
            covered: true,
            degraded: false,
            missing: Vec::new(),
            label: Some("weird partial=1 missing=9 label".to_owned()),
        };
        match Response::parse(&resp.encode()).expect("parses") {
            Response::Cover { missing, label, .. } => {
                assert!(missing.is_empty(), "forged marker ignored");
                assert_eq!(label.as_deref(), Some("weird partial=1 missing=9 label"));
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn stats_without_degraded_field_defaults_to_false() {
        // Old single-server STATS lines (pre-health-fields) stay parseable.
        match Response::parse("OK STATS epoch=3 categories=4 max_depth=2 items=100")
            .expect("lenient parse")
        {
            Response::Stats { degraded, .. } => assert!(!degraded),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn labels_with_spaces_survive() {
        let resp = Response::Cover {
            epoch: 1,
            cat: Some(2),
            similarity: 1.0,
            precision: 1.0,
            covered: true,
            degraded: false,
            missing: Vec::new(),
            label: Some("black running shoes size=44".to_owned()),
        };
        match Response::parse(&resp.encode()).expect("parses") {
            Response::Cover { label, .. } => {
                assert_eq!(label.as_deref(), Some("black running shoes size=44"));
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn error_newlines_cannot_forge_extra_lines() {
        let resp = Response::Error {
            code: ErrorCode::Internal,
            message: "line1\nOK PONG epoch=9".to_owned(),
        };
        assert!(!resp.encode().contains('\n'), "newline must be stripped");
    }

    #[test]
    fn response_parse_rejects_garbage() {
        assert!(Response::parse("").is_err());
        assert!(Response::parse("YO").is_err());
        assert!(Response::parse("OK NOPE x=1").is_err());
        assert!(Response::parse("ERR what").is_err());
        assert!(Response::parse("ERR martian: oh no").is_err());
        assert!(Response::parse("OK PONG").is_err(), "missing epoch");
    }
}
